import csv
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import same_bits

from cosrel import suites, weyssenhoff
from cosrel.minkowski import ETA
from cosrel.weyssenhoff import (ClosureError, WeyssenhoffElement, frenkel_projector,
                                integrate_worldline, momentum_from_state,
                                spin_matrix_from_components, split_momentum, stress_tensors,
                                transverse_momentum)


def spin_components(s) -> list:
    """The six independent lowered components of a mixed spin matrix (the CSV's s columns)."""
    s_low = ETA @ np.asarray(s, dtype=float)
    return [float(s_low[m, n]) for m, n in weyssenhoff.SPIN_COMPONENTS]


def _rest_element(rho0=1.3, pis=(0.0, 0.0, 0.0), s12=0.5):
    u = np.array([1.0, 0, 0, 0])
    g = rho0 * (ETA @ u) + np.array([0.0, *pis])
    s = spin_matrix_from_components([0, 0, 0, s12, 0, 0])
    return WeyssenhoffElement(np.zeros(4), u, g, s)


def _moving_element(rng):
    v = rng.uniform(-0.4, 0.4, 3)
    gamma = 1.0 / math.sqrt(1 - float(v @ v))
    u = gamma * np.array([1.0, *v])
    P = frenkel_projector(u)
    raw = rng.standard_normal((4, 4))
    s = P @ (ETA @ (0.5 * (raw - raw.T))) @ P
    rho0 = rng.uniform(0.5, 2.0)
    a_seed = P @ rng.standard_normal(4)
    el0 = WeyssenhoffElement(np.zeros(4), u, rho0 * (ETA @ u), s)
    pi = transverse_momentum(el0, a_seed)
    g = rho0 * (ETA @ u) + ETA @ pi
    return WeyssenhoffElement(np.zeros(4), u, g, s)


def test_spin_component_roundtrip(rng):
    comps = rng.standard_normal(6)
    s = spin_matrix_from_components(comps)
    low = ETA @ s
    assert np.abs(low + low.T).max() == 0.0
    assert np.abs(np.array(spin_components(s)) - comps).max() <= 1e-15


@pytest.mark.parametrize("count", [3, 7])
def test_spin_matrix_refuses_other_component_counts(count):
    with pytest.raises(ValueError, match=f"6 lowered components, got {count}"):
        spin_matrix_from_components(np.ones(count))


def test_element_invariants():
    el = _rest_element()
    assert max(el.invariant_defects().values()) <= 1e-12
    el.validate()
    bad = WeyssenhoffElement(np.zeros(4), np.array([1.0, 0.5, 0, 0]),
                             np.array([1.0, 0, 0, 0]), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        bad.validate()


@pytest.mark.parametrize("slot, value", [("x", [[0.0, 0.0], [0.0, 0.0]]), ("u", np.ones(5)),
                                         ("g", np.ones((1, 4))), ("s", np.zeros(16))])
def test_element_refuses_a_slot_of_another_shape(slot, value):
    """A slot is not reshaped: a (2, 2) x or a flat s of 16 entries is refused, naming it."""
    slots = {"x": np.zeros(4), "u": [1.0, 0, 0, 0], "g": [1.3, 0, 0, 0], "s": np.zeros((4, 4)),
             slot: value}
    with pytest.raises(ValueError, match=f"^element {slot} must have shape "):
        WeyssenhoffElement(**slots)


@pytest.mark.parametrize("slot", ["x", "u", "g", "s"])
def test_non_finite_element_refused(slot):
    el = _rest_element()
    getattr(el, slot).flat[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        el.validate()


def test_nan_invariant_defect_refused():
    # finite state whose Frenkel residual overflows to inf - inf = NaN
    u = np.array([math.cosh(3.0), math.sinh(3.0), 0.0, 0.0])
    s = spin_matrix_from_components([0.0, -1e308, 0.0, 1e308, 0.0, 0.0])
    el = WeyssenhoffElement(np.zeros(4), u, ETA @ u, s)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(el.invariant_defects()["frenkel"])
        with pytest.raises(ValueError, match="frenkel"):
            el.validate()


def test_split_collinear_momentum():
    el = _rest_element(rho0=2.0, s12=0.0)
    sp = split_momentum(el.g, el.u)
    assert sp.rho0 == pytest.approx(2.0, abs=1e-14)
    assert np.abs(sp.pi_low).max() <= 1e-14
    assert sp.g_square == pytest.approx(4.0, abs=1e-13)
    assert sp.mu0_defined


def test_split_rest_frame_recovery():
    pis = (0.3, -0.2, 0.1)
    el = _rest_element(rho0=1.5, pis=pis, s12=0.0)
    sp = split_momentum(el.g, el.u)
    assert sp.rho0 == pytest.approx(1.5, abs=1e-14)
    assert np.abs(sp.pi_low - np.array([0, *pis])).max() <= 1e-14
    assert abs(float(el.u @ sp.pi_low)) <= 1e-14


def test_momentum_density_identity(rng):
    # g.g = rho0^2 + pi.pi for any split (pi spacelike makes mu0 <= rho0)
    for _ in range(20):
        el = _moving_element(rng)
        sp = split_momentum(el.g, el.u)
        pi_up = ETA @ sp.pi_low
        gg = float(el.g @ ETA @ el.g)
        assert gg == pytest.approx(sp.rho0 ** 2 + float(sp.pi_low @ pi_up), abs=1e-12)
        if sp.mu0_defined:
            assert math.sqrt(sp.g_square) <= sp.rho0 + 1e-12


def test_mu0_flagged_when_momentum_spacelike():
    el = _rest_element(rho0=0.5, pis=(2.0, 0, 0), s12=0.0)
    sp = split_momentum(el.g, el.u)
    assert not sp.mu0_defined
    assert sp.g_square < 0


def test_stress_rest_frame_layouts():
    el = _rest_element(rho0=1.3, pis=(0.0, 0, 0), s12=0.0)
    st = stress_tensors(el)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.3
    assert np.abs(st.T - expected).max() <= 1e-14

    el = _rest_element(rho0=1.3, pis=(0.4, -0.1, 0.2), s12=0.0)
    st = stress_tensors(el)
    assert st.T[0, 0] == pytest.approx(1.3, abs=1e-14)
    assert np.abs(st.T[0, 1:] - np.array([0.4, -0.1, 0.2])).max() <= 1e-14
    assert np.abs(st.T[1:, :]).max() <= 1e-14


def test_stress_antisymmetric_part(rng):
    for _ in range(10):
        el = _moving_element(rng)
        st = stress_tensors(el)
        sp = split_momentum(el.g, el.u)
        u_low = ETA @ el.u
        expected = 0.5 * (np.outer(sp.pi_low, u_low) - np.outer(u_low, sp.pi_low))
        assert np.abs(st.T_asym - expected).max() <= 1e-13
        assert st.trace == pytest.approx(sp.rho0, abs=1e-12)
        # spin flux: S[nu][lam][mu] = s^nu_mu u^lam
        assert np.abs(st.S - np.einsum("nm,l->nlm", el.s, el.u)).max() == 0.0


def test_transverse_momentum_zero_cases():
    el = _rest_element()
    assert np.abs(transverse_momentum(el, np.zeros(4))).max() == 0.0
    el0 = _rest_element(s12=0.0)
    assert np.abs(transverse_momentum(el0, np.array([0, 0.3, 0, 0]))).max() == 0.0


def test_transverse_momentum_rest_frame_contraction():
    sigma, alpha = 0.7, 0.4
    el = _rest_element(s12=sigma)
    a = np.array([0.0, alpha, 0.0, 0.0])
    pi = transverse_momentum(el, a)
    # oracle: explicit 4x4 contraction of -s^mu_nu a^nu
    oracle = -(el.s @ a)
    assert np.abs(pi - oracle).max() == 0.0
    expected = np.zeros(4)
    expected[2] = -sigma * alpha  # s_{12} = sigma raises to s^2_1 = sigma
    assert np.abs(pi - expected).max() <= 1e-14


def test_transverse_momentum_requires_orthogonal_acceleration():
    el = _rest_element()
    with pytest.raises(ValueError):
        transverse_momentum(el, np.array([1.0, 0, 0, 0]))
    # the threshold is 1e-9 of max(1, max|a|): u.a = a^0 in the rest frame
    transverse_momentum(el, np.array([0.9e-9, 0.3, 0, 0]))
    transverse_momentum(el, np.array([1.8e-9, 2.0, 0, 0]))
    with pytest.raises(ValueError, match="u.a = 1.100e-09"):
        transverse_momentum(el, np.array([1.1e-9, 0.3, 0, 0]))


def test_momentum_from_state_roundtrip(rng):
    for _ in range(10):
        el = _moving_element(rng)
        P = frenkel_projector(el.u)
        a = P @ rng.standard_normal(4)
        g2 = momentum_from_state(el, a)
        sp = split_momentum(g2, el.u)
        sp_direct = split_momentum(el.g, el.u)
        assert sp.rho0 == pytest.approx(sp_direct.rho0, abs=1e-12)
        pi = transverse_momentum(el, a)
        assert np.abs(sp.pi_low - ETA @ pi).max() <= 1e-12


def test_momentum_from_state_zero_acceleration():
    el = _rest_element(rho0=1.7, s12=0.4)
    g = momentum_from_state(el, np.zeros(4))
    assert np.abs(g - 1.7 * (ETA @ el.u)).max() <= 1e-13


def test_momentum_from_state_rest_numeric():
    sigma, alpha = 0.7, 0.4
    el = _rest_element(rho0=1.3, s12=sigma)
    a = np.array([0.0, alpha, 0.0, 0.0])
    g = momentum_from_state(el, a)
    expected = np.array([1.3, 0.0, sigma * alpha, 0.0])  # lowering flips the spatial pi
    assert np.abs(g - expected).max() <= 1e-13


@pytest.mark.parametrize("steps,dtau", [(-1, 0.01), (2.5, 0.01), ("3", 0.01), (None, 0.01),
                                        (3, math.nan), (3, math.inf), (3, -math.inf),
                                        (3, 1e308), (10 ** 5, 1e304)])
def test_bad_steps_or_dtau_refused(steps, dtau):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            integrate_worldline(_rest_element(), steps, dtau)
    assert "\n" not in str(info.value)


def test_tau_grid_accepts_integer_steps():
    assert np.array_equal(weyssenhoff.tau_grid(np.int64(3), 0.25), [0.0, 0.25, 0.5, 0.75])
    assert np.array_equal(weyssenhoff.tau_grid(0, -1e308), [0.0])


def test_worldline_spinless_straight():
    el = WeyssenhoffElement(np.zeros(4), np.array([1.0, 0, 0, 0]),
                            np.array([1.5, 0, 0, 0]), np.zeros((4, 4)))
    traj = integrate_worldline(el, 200, 0.01)
    assert np.abs(traj.u - el.u).max() <= 1e-12
    assert np.abs(traj.x - np.outer(traj.tau, el.u)).max() <= 1e-12
    assert np.abs(traj.s).max() == 0.0


def test_worldline_pi_zero_constant_velocity(rng):
    v = np.array([0.2, -0.1, 0.15])
    gamma = 1.0 / math.sqrt(1 - float(v @ v))
    u = gamma * np.array([1.0, *v])
    P = frenkel_projector(u)
    raw = rng.standard_normal((4, 4))
    s = P @ (ETA @ (0.5 * (raw - raw.T))) @ P
    el = WeyssenhoffElement(np.zeros(4), u, 1.2 * (ETA @ u), s)
    traj = integrate_worldline(el, 300, 0.01)
    assert np.abs(traj.u - u).max() <= 1e-10
    assert np.abs(traj.x - np.outer(traj.tau, u)).max() <= 1e-9
    assert np.abs(traj.s - s).max() <= 1e-10


def test_worldline_momentum_held_constant(rng):
    el = _moving_element(rng)
    traj = integrate_worldline(el, 100, 0.01)
    assert np.array_equal(traj.g, el.g)


def test_worldline_drift_is_fourth_order(rng):
    el = _moving_element(rng)
    drifts = {}
    for dtau, steps in ((0.02, 200), (0.01, 400)):
        traj = integrate_worldline(el, steps, dtau)
        ds = traj.drift_summary()
        drifts[dtau] = max(ds["u_norm"], ds["frenkel"])
    order = math.log2(drifts[0.02] / drifts[0.01])
    assert order >= 3.5


def test_worldline_differentiated_frenkel_identity(rng):
    # s-dot contracted with u equals -(s a) along the trajectory
    from cosrel.weyssenhoff import _acceleration
    el = _moving_element(rng)
    traj = integrate_worldline(el, 50, 0.01)
    for i in (0, 25, 50):
        u, s = traj.u[i], traj.s[i]
        a, pi, pi_low = _acceleration(u, s, traj.g)
        sdot = _sdot(pi, pi_low, u)
        lhs = sdot @ u  # s-dot^mu_nu u^nu
        rhs = -(s @ a)
        assert np.abs(lhs - rhs).max() <= 1e-6


def test_worldline_spin_invariant_drift_small(rng):
    el = _moving_element(rng)
    traj = integrate_worldline(el, 400, 0.01)
    assert traj.drift_summary()["spin_invariant"] <= 1e-4


def _angular_momentum(traj) -> np.ndarray:
    """M = x_low ^ g + s_low of each recorded state, lowered indices."""
    x_low = traj.x @ ETA
    return (x_low[:, :, None] * traj.g[None, None, :] - traj.g[None, :, None] * x_low[:, None, :]
            + ETA @ traj.s)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_worldline_keeps_total_angular_momentum_to_roundoff(seed):
    """M is linear in the state and its rate vanishes, so RK4 keeps it to roundoff.

    Over 4000 steps of 0.005, |M - M0| measured at most 5.9e-14 on these seeds
    (1.0e-13 on seeds 3 and 4); the bound leaves a margin of 17.  Renormalising
    u and projecting s after every step reads 2.8e-11 to 5.9e-11 here.
    """
    traj = integrate_worldline(_bounded_element(np.random.default_rng(seed)), 4000, 0.005)
    M = _angular_momentum(traj)
    assert np.abs(M - M[0]).max() <= 1e-12


def test_worldline_unsolvable_closure_rejected():
    # spin-free element with transverse momentum: pi outside range(s)
    u = np.array([1.0, 0, 0, 0])
    g = np.array([1.0, 0.3, 0, 0])
    el = WeyssenhoffElement(np.zeros(4), u, g, np.zeros((4, 4)))
    with pytest.raises(ClosureError):
        integrate_worldline(el, 10, 0.01)


def test_worldline_invalid_initial_data_rejected():
    el = WeyssenhoffElement(np.zeros(4), np.array([1.0, 0.3, 0, 0]),
                            np.array([1.0, 0, 0, 0]), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        integrate_worldline(el, 10, 0.01)


def test_trajectory_writers(tmp_path, rng):
    el = _moving_element(rng)
    traj = integrate_worldline(el, 20, 0.01)
    csv_path = tmp_path / "traj.csv"
    json_path = tmp_path / "traj.json"
    traj.write_csv(csv_path)
    traj.write_json(json_path)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 22  # header + 21 records
    assert rows[0][:2] == ["tau", "x0"]
    back = np.array([float(v) for v in rows[1][1:5]])
    assert np.abs(back - traj.x[0]).max() <= 1e-15
    assert [float(v) for v in rows[4][9:15]] == spin_components(traj.s[3])
    assert json_path.read_bytes() == _summary_reference(traj)


# --------------------------------------------------------------------------
# the scalar RK4 kernel against the SVD + lstsq closure it replaced


def _oracle_acceleration(u, s, g):
    """Column-space least squares through the SVD of s: the reference closure."""
    rho0 = float(g @ u)
    rhs = -(ETA @ (g - rho0 * (ETA @ u)))
    U, sv, _ = np.linalg.svd(s)
    cols = sv > 1e-12 * max(sv[0], 1e-300)
    if not np.any(cols):
        return np.zeros(4)
    R = U[:, cols]
    alpha, *_ = np.linalg.lstsq(s @ R, rhs, rcond=None)
    return R @ alpha


def _sdot(pi, pi_low, u):
    """Spin rate pi (x) u_low - u (x) pi_low: the transverse-momentum bivector."""
    u_low = ETA @ u
    return np.outer(pi, u_low) - np.outer(u, pi_low)


def _oracle_rhs(y, g):
    x, u, s = y
    a = _oracle_acceleration(u, s, g)
    rho0 = float(g @ u)
    pi_low = g - rho0 * (ETA @ u)
    return u.copy(), a, np.outer(ETA @ pi_low, ETA @ u) - np.outer(u, pi_low)


def _oracle_worldline(el, steps, dtau):
    """Plain tuple RK4 over the oracle closure; returns the (x, u, s) stacks."""
    y = (el.x.copy(), el.u.copy(), el.s.copy())
    ys = [y]
    for _ in range(steps):
        k1 = _oracle_rhs(y, el.g)
        k2 = _oracle_rhs(tuple(y[j] + 0.5 * dtau * k1[j] for j in range(3)), el.g)
        k3 = _oracle_rhs(tuple(y[j] + 0.5 * dtau * k2[j] for j in range(3)), el.g)
        k4 = _oracle_rhs(tuple(y[j] + dtau * k3[j] for j in range(3)), el.g)
        y = tuple(y[j] + dtau / 6.0 * (k1[j] + 2 * k2[j] + 2 * k3[j] + k4[j]) for j in range(3))
        ys.append(y)
    return tuple(np.array([y[j] for y in ys]) for j in range(3))


def _closure_reference(s, rhs) -> list:
    """The generic spin closure that `weyssenhoff._closure` writes out in scalar form.

    Same floating-point operations in the same order, with the pivots chosen by
    `max` (first column on ties) and by sort + pop (later column on ties).
    """
    cols = (s[0::4], s[1::4], s[2::4], s[3::4])
    norms = [a * a + b * b + c * c + d * d for a, b, c, d in cols]
    j1 = max(range(4), key=norms.__getitem__)
    n1 = norms[j1]
    if n1 == 0.0:
        return [0.0, 0.0, 0.0, 0.0]
    cut = weyssenhoff._RANK_TOL ** 2 * n1
    r = math.sqrt(n1)
    q0, q1, q2, q3 = [v / r for v in cols[j1]]
    rest = []                                   # (|w|^2, j, w): column j minus its part along r1
    for j in range(4):
        if j != j1:
            a, b, c, e = cols[j]
            d = q0 * a + q1 * b + q2 * c + q3 * e
            w0, w1, w2, w3 = a - d * q0, b - d * q1, c - d * q2, e - d * q3
            rest.append((w0 * w0 + w1 * w1 + w2 * w2 + w3 * w3, j, (w0, w1, w2, w3)))
    rest.sort()
    n2, j2, w = rest.pop()
    if not n2 > cut:
        return weyssenhoff._svd_lstsq(s, rhs)
    r = math.sqrt(n2)
    q0, q1, q2, q3 = [v / r for v in w]
    for _, _, (a, b, c, e) in rest:             # third pivot: what r2 leaves of the other two
        d = q0 * a + q1 * b + q2 * c + q3 * e
        w0, w1, w2, w3 = a - d * q0, b - d * q1, c - d * q2, e - d * q3
        if w0 * w0 + w1 * w1 + w2 * w2 + w3 * w3 > cut:
            return weyssenhoff._svd_lstsq(s, rhs)
    p0, p1, p2, p3 = r1 = cols[j1]
    t0, t1, t2, t3 = r2 = cols[j2]
    rows = (s[0:4], s[4:8], s[8:12], s[12:16])
    b1 = [a * p0 + b * p1 + c * p2 + d * p3 for a, b, c, d in rows]
    b2 = [a * t0 + b * t1 + c * t2 + d * t3 for a, b, c, d in rows]
    r11 = math.sqrt(b1[0] * b1[0] + b1[1] * b1[1] + b1[2] * b1[2] + b1[3] * b1[3])
    if not r11 > 0.0:
        return weyssenhoff._svd_lstsq(s, rhs)
    e0, e1, e2, e3 = [v / r11 for v in b1]
    r12 = e0 * b2[0] + e1 * b2[1] + e2 * b2[2] + e3 * b2[3]
    w0, w1, w2, w3 = b2[0] - r12 * e0, b2[1] - r12 * e1, b2[2] - r12 * e2, b2[3] - r12 * e3
    r22 = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2 + w3 * w3)
    if not r22 > weyssenhoff._RANK_TOL ** 2 * r11:
        return weyssenhoff._svd_lstsq(s, rhs)
    h0, h1, h2, h3 = rhs
    alpha2 = (w0 * h0 + w1 * h1 + w2 * h2 + w3 * h3) / (r22 * r22)
    alpha1 = (e0 * h0 + e1 * h1 + e2 * h2 + e3 * h3 - r12 * alpha2) / r11
    return [alpha1 * v + alpha2 * w for v, w in zip(r1, r2)]


def _rate_reference(y, g, gate):
    """The generic worldline right-hand side that `weyssenhoff._rate` writes out, over
    `_closure_reference`."""
    u0, u1, u2, u3 = u = y[4:8]
    s = y[8:24]
    g0, g1, g2, g3 = g
    rho0 = g0 * u0 + g1 * u1 + g2 * u2 + g3 * u3
    u_low = (u0, -u1, -u2, -u3)
    pi_low = (g0 - rho0 * u0, g1 + rho0 * u1, g2 + rho0 * u2, g3 + rho0 * u3)
    pi = (pi_low[0], -pi_low[1], -pi_low[2], -pi_low[3])
    rhs = [-1.0 * p for p in pi]
    a0, a1, a2, a3 = a = _closure_reference(s, rhs)
    residual = None
    if gate is not None:
        residual = max(abs(p * a0 + q * a1 + r * a2 + t * a3 - h)
                       for (p, q, r, t), h in zip((s[0:4], s[4:8], s[8:12], s[12:16]), rhs))
        if not residual <= gate:
            raise ClosureError(residual)
    sdot = [pm * un - um * pn for pm, um in zip(pi, u) for un, pn in zip(u_low, pi_low)]
    return u + a + sdot, residual


def _bounded_element(rng):
    """Boosted spinning element with timelike momentum density, |pi| = 0.3 rho0."""
    v = rng.uniform(-0.4, 0.4, 3)
    u = np.array([1.0, *v]) / math.sqrt(1.0 - float(v @ v))
    P = frenkel_projector(u)
    raw = rng.standard_normal((4, 4))
    s = P @ (ETA @ (0.5 * (raw - raw.T))) @ P
    rho0 = rng.uniform(0.5, 2.0)
    pi = -(s @ (P @ rng.standard_normal(4)))
    pi *= 0.3 * rho0 / math.sqrt(-float(pi @ ETA @ pi))
    return WeyssenhoffElement(np.zeros(4), u, rho0 * (ETA @ u) + ETA @ pi, s)


def _fallback_calls():
    return mock.patch.object(weyssenhoff, "_svd_lstsq", wraps=weyssenhoff._svd_lstsq)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["on-manifold", "stage", "rank-4"]), size=st.floats(0.05, 1.0))
def test_closure_matches_svd_oracle(seed, kind, size):
    rng = np.random.default_rng(seed)
    el = _bounded_element(rng)
    u, s = el.u, el.s
    if kind == "stage":
        # a Runge-Kutta stage: off the Frenkel constraint, still of rank 2
        a, pi, pi_low = weyssenhoff._acceleration(u, s, el.g)
        h = 0.1 * size
        u, s = u + h * a, s + h * _sdot(pi, pi_low, u)
    elif kind == "rank-4":
        raw = rng.standard_normal((4, 4))
        s = s + size * (ETA @ (raw - raw.T))
    with _fallback_calls() as fallback:
        a = weyssenhoff._acceleration(u, s, el.g)[0]
    oracle = _oracle_acceleration(u, s, el.g)
    assert np.abs(a - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert fallback.called == (kind == "rank-4")


def _gated_rate(u, s, g, gate):
    """`_rate` of one state at x = 0 under a closure gate: (rate, residual)."""
    y = [0.0] * 4 + list(u) + np.asarray(s, dtype=float).ravel().tolist()
    return weyssenhoff._rate(y, list(g), gate)


def test_closure_zero_spin():
    u = np.array([1.0, 0, 0, 0])
    a, pi, _ = weyssenhoff._acceleration(u, np.zeros((4, 4)), 1.3 * (ETA @ u))
    assert np.abs(pi).max() == 0.0
    assert np.array_equal(a, np.zeros(4))
    assert _gated_rate(u, np.zeros((4, 4)), 1.3 * (ETA @ u), 0.0)[1] == 0.0
    g = np.array([1.3, 0.2, 0, 0])
    gate = weyssenhoff._closure_gate(split_momentum(g, u).pi_low)
    assert gate == weyssenhoff._SOLVER_TOL              # max|pi| = 0.2 is below the floor 1
    with pytest.raises(ClosureError):
        _gated_rate(u, np.zeros((4, 4)), g, gate)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_closure_gate_scales_by_the_largest_rhs_entry(m):
    """With s = 0 the residual is max|pi|, which is also the gate's scale above 1."""
    g = [1.3, 0.5, 0.5, 0.5]
    g[m] = 2.0
    u, s = [1.0, 0.0, 0.0, 0.0], np.zeros((4, 4))
    gate = weyssenhoff._closure_gate(split_momentum(g, u).pi_low)
    assert gate == weyssenhoff._SOLVER_TOL * 2.0
    assert _gated_rate(u, s, g, 2.0)[1] == 2.0     # a residual at the gate passes
    for below in (np.nextafter(2.0, 0.0), gate):
        with pytest.raises(ClosureError) as exc:
            _gated_rate(u, s, g, below)
        assert exc.value.residual == 2.0


def test_closure_error_survives_pickling():
    """A ClosureError raised in a worker process reaches its parent whole."""
    exc = ClosureError(0.5)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is ClosureError and back.residual == 0.5
    assert str(back) == str(exc) == "spin closure unsolvable: residual 5.000e-01"


def test_closure_rank_four_takes_fallback(rng):
    el = _bounded_element(rng)
    raw = rng.standard_normal((4, 4))
    s = ETA @ (raw - raw.T)                     # generic antisymmetric: Pfaffian != 0
    assert np.linalg.svd(s, compute_uv=False)[3] > 1e-3
    with _fallback_calls() as fallback:
        a = weyssenhoff._acceleration(el.u, s, el.g)[0]
    assert fallback.call_count == 1
    oracle = _oracle_acceleration(el.u, s, el.g)
    assert np.abs(a - oracle).max() <= 1e-12 * np.abs(oracle).max()


def _noisy_spin_element(rng, magnitude, defect):
    """A bounded element rescaled to |s| = magnitude, |pi| with it, plus a rank-4 spin
    part whose Frenkel defect max|s u| is `defect`; and the clean element."""
    el = _bounded_element(rng)
    s_low = ETA @ el.s
    k = magnitude / math.sqrt(0.5 * np.einsum("mn,mn->", s_low, ETA @ s_low @ ETA))
    rho0 = split_momentum(el.g, el.u).rho0
    g = rho0 * (ETA @ el.u) + k * (el.g - rho0 * (ETA @ el.u))
    raw = rng.standard_normal((4, 4))
    noise = ETA @ (raw - raw.T)
    noise *= defect / np.abs(noise @ el.u).max()
    return (WeyssenhoffElement(el.x, el.u, g, k * el.s + noise),
            WeyssenhoffElement(el.x, el.u, g, k * el.s))


@pytest.mark.parametrize("magnitude", [1.0, 0.1, 3e-3])
def test_closure_solves_every_accepted_spin_as_rank_two(magnitude):
    """A Frenkel defect that validate() accepts is not inverted: the closure stays on its
    rank-2 path, a moves by about the defect's relative size (1.9e-7 at |s| = 3e-3), and
    a run integrates (see _RANK_TOL's comment)."""
    noisy, clean = _noisy_spin_element(np.random.default_rng(7), magnitude, 0.9e-9)
    noisy.validate()
    with _fallback_calls() as fallback:
        a = weyssenhoff._acceleration(noisy.u, noisy.s, noisy.g)[0]
    assert not fallback.called
    a_clean = weyssenhoff._acceleration(clean.u, clean.s, clean.g)[0]
    assert np.abs(a - a_clean).max() <= 1e-6 * np.abs(a_clean).max()
    traj = integrate_worldline(noisy, 1000, 0.002 * magnitude)
    assert traj.drift_summary()["frenkel"] <= 2e-9


def test_validate_refuses_a_defect_the_closure_would_invert():
    """0.9e-9 passes the absolute 1e-9 bound, but at |s| = 5e-4 it is above _RANK_TOL |s| / 2.1
    = 2.38e-10; without the relative bound this element stopped with a closure residual of
    1.7e+12 within 1,000 steps of 1e-6.  Just below the bound, the run integrates."""
    noisy, _ = _noisy_spin_element(np.random.default_rng(7), 5e-4, 0.9e-9)
    with pytest.raises(ValueError, match=r"^Frenkel defect 9\.000e-10 above 2\.381e-10, "):
        integrate_worldline(noisy, 1000, 1e-6)
    noisy, _ = _noisy_spin_element(np.random.default_rng(7), 5e-4, 0.99 * 2.381e-10)
    traj = integrate_worldline(noisy, 1000, 1e-6)
    assert traj.drift_summary()["frenkel"] <= 2e-9


def _rank_four_spin():
    raw = np.random.default_rng(1).standard_normal((4, 4))
    return ETA @ (raw - raw.T)


def _sparse_spin(*entries):
    s = np.zeros((4, 4))
    for m, n, v in entries:
        s[m, n] = v
    return s


@pytest.mark.parametrize("s, roots", [
    (np.outer([1.0, 2.0, 0, 0], [1.0, 0, 3.0, 0]), 1),     # rank 1: no second pivot
    (_rank_four_spin(), 2),                                # rank 4: a third pivot
    (_sparse_spin((0, 1, 1.0), (2, 3, 1.0)), 3),             # s r1 = 0: r11 vanishes
    (_sparse_spin((0, 0, 2.0), (1, 2, 1.0)), 4),             # s r2 = 0: r22 vanishes
], ids=["second-pivot", "third-pivot", "r11", "r22"])
def test_closure_fallback_triggers_in_order(s, roots):
    """Each SVD trigger fires after its own number of square roots: r1, r2, r11, r22."""
    rhs = [0.3, -0.2, 0.5, 0.1]
    with _fallback_calls() as fallback, mock.patch.object(weyssenhoff, "math", wraps=math) as m:
        a = weyssenhoff._closure(s.ravel().tolist(), rhs)
    assert fallback.call_count == 1
    assert m.sqrt.call_count == roots
    assert same_bits(a, weyssenhoff._svd_lstsq(s.ravel().tolist(), rhs))


def test_nan_spin_goes_through_the_fallback():
    el = _bounded_element(np.random.default_rng(3))
    s = el.s.copy()
    s[1, 2] = np.nan
    with _fallback_calls() as fallback, pytest.raises(np.linalg.LinAlgError):
        weyssenhoff._acceleration(el.u, s, el.g)
    assert fallback.call_count == 1


def test_nan_spin_outside_a_zero_first_column_is_refused():
    """The first pivot keeps column 0 at norm 0 (nan > 0 is false); that is not a = 0."""
    s = np.zeros((4, 4))
    s[2, 1] = np.nan
    with _fallback_calls() as fallback, pytest.raises(np.linalg.LinAlgError):
        weyssenhoff._acceleration((1.0, 0, 0, 0), s, (1.3, 0, 0, 0))
    assert fallback.call_count == 1


def test_svd_fallback_refuses_an_infinite_spin():
    """In a child process with a timeout: np.linalg.svd need not return on an inf entry."""
    code = ("import numpy as np\n"
            "from cosrel.weyssenhoff import _svd_lstsq\n"
            "s = np.eye(4)\n"
            "s[1, 0] = -np.inf\n"
            "try:\n"
            "    _svd_lstsq(s, [1.0, 0.0, 0.0, 0.0])\n"
            "except np.linalg.LinAlgError as exc:\n"
            "    print('refused:', exc)\n")
    # the child imports the same cosrel as this process, installed or not
    src = os.path.dirname(os.path.dirname(weyssenhoff.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused:")


def _tied_spin(rng, which):
    """A rank-2 spin matrix whose columns tie exactly for the first or the second pivot.

    "first": two columns of equal norm (one is the other with some signs flipped).
    "second": r1 is 8 times a coordinate vector, so what r1 leaves of the other
    columns is exact, and two of them leave the same |w|^2 from different columns.
    Rows and columns are shuffled, so the tie falls on any pair of indices.
    """
    if which == "first":
        v = rng.standard_normal(4)
        cols = [v, np.array([1.0, -1.0, 1.0, -1.0])[rng.permutation(4)] * v]
        cols += [0.5 * cols[0] - 0.25 * cols[1], np.zeros(4)]
    else:
        w = rng.standard_normal(4)
        w[0] = 0.0
        x, y = rng.uniform(-1.0, 1.0, 2)
        cols = [np.array([8.0, 0, 0, 0]), w + [x, 0, 0, 0], -w + [y, 0, 0, 0], 0.5 * w]
    s = np.column_stack(cols)[:, rng.permutation(4)]
    return s[rng.permutation(4)]


def _kernel_state(rng, kind):
    """Flat state y and covariant g for the kernel oracle: one of the closure's input classes."""
    el = _bounded_element(rng)
    y = np.concatenate([el.x, el.u, el.s.ravel()]).tolist()
    g = el.g.tolist()
    if kind == "stage":                        # an RK4 stage: off the constraints, rank 2
        k1, _ = _rate_reference(y, g, None)
        h = rng.uniform(0.005, 0.1)
        y = [v + h * k for v, k in zip(y, k1)]
    elif kind == "rank-4":
        raw = rng.standard_normal((4, 4))
        y[8:] = (el.s + rng.uniform(0.05, 1.0) * (ETA @ (raw - raw.T))).ravel().tolist()
    elif kind == "rank-3":                     # one small column off the plane of the others
        a, b = rng.standard_normal((2, 4))
        off = 1e-3 * rng.standard_normal(4)
        s = np.column_stack([a, b, 0.5 * a - 0.25 * b, off])[:, rng.permutation(4)]
        y[8:] = s.ravel().tolist()
    elif kind == "zero-spin":
        y[8:] = [0.0] * 16
    elif kind in ("first-tie", "second-tie"):
        y[8:] = _tied_spin(rng, kind.split("-")[0]).ravel().tolist()
    return y, g


def _kernel_outcome(rate, y, g, check):
    try:
        out, residual = rate(y, g, 1e-3 if check else None)
    except ClosureError as exc:
        return "ClosureError", np.array([exc.residual])
    return "rate", np.array(out + [np.nan if residual is None else residual])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), check=st.booleans(),
       kind=st.sampled_from(["rank-2", "stage", "rank-3", "rank-4", "zero-spin", "first-tie",
                             "second-tie"]))
def test_kernel_is_bitwise_the_reference(seed, check, kind):
    rng = np.random.default_rng(seed)
    y, g = _kernel_state(rng, kind)
    rhs = rng.standard_normal(4).tolist()
    assert same_bits(weyssenhoff._closure(y[8:], rhs), _closure_reference(y[8:], rhs))
    got_kind, got = _kernel_outcome(weyssenhoff._rate, y, g, check)
    want_kind, want = _kernel_outcome(_rate_reference, y, g, check)
    assert got_kind == want_kind
    assert same_bits(got, want)


def test_trajectory_is_bitwise_the_reference_kernel():
    """The scalar kernel against the RK4 loop over the reference kernel, and the blocked
    diagnostics against one pass over every row.  256 and 257 steps record 1 and 2 rows
    past the first _WRITE_ROWS block; 500 steps end inside the second."""
    el = _bounded_element(np.random.default_rng(0))
    dtau, g = 0.005, el.g.tolist()
    half, sixth = 0.5 * dtau, dtau / 6.0
    y = np.concatenate([el.x, el.u, el.s.ravel()]).tolist()
    states, residuals = [y], []
    for _ in range(500):
        k1, residual = _rate_reference(y, g, math.inf)
        k2, _ = _rate_reference([v + half * k for v, k in zip(y, k1)], g, None)
        k3, _ = _rate_reference([v + half * k for v, k in zip(y, k2)], g, None)
        k4, _ = _rate_reference([v + dtau * k for v, k in zip(y, k3)], g, None)
        y = [v + sixth * (p + 2 * q + 2 * r + t) for v, p, q, r, t in zip(y, k1, k2, k3, k4)]
        states.append(y)
        residuals.append(residual)
    residuals.append(_rate_reference(y, g, math.inf)[1])
    states, residuals = np.array(states), np.array(residuals)
    for steps in (weyssenhoff._WRITE_ROWS, weyssenhoff._WRITE_ROWS + 1, 500):
        traj = integrate_worldline(el, steps, dtau)
        ref = states[:steps + 1]
        assert traj.x.tobytes() == ref[:, :4].tobytes()
        assert traj.u.tobytes() == ref[:, 4:8].tobytes()
        assert traj.s.tobytes() == ref[:, 8:].reshape(-1, 4, 4).tobytes()
        diag = weyssenhoff._diagnostics(ref[:, 4:8], ref[:, 8:].reshape(-1, 4, 4))
        diag["spin_invariant"] -= diag["spin_invariant"][0]
        diag["closure_residual"] = residuals[:steps + 1]
        assert {key: v.tobytes() for key, v in traj.diagnostics.items()} \
            == {key: v.tobytes() for key, v in diag.items()}, steps


def test_worldline_matches_oracle_rk4(rng):
    el = _bounded_element(rng)
    traj = integrate_worldline(el, 400, 0.01)
    xs, us, ss = _oracle_worldline(el, 400, 0.01)
    assert np.abs(traj.x - xs).max() <= 1e-12
    assert np.abs(traj.u - us).max() <= 1e-12
    assert np.abs(traj.s - ss).max() <= 1e-12
    assert traj.diagnostics["closure_residual"].shape == (401,)
    # off the constraint manifold the closure is solvable only up to the drift
    assert traj.drift_summary()["closure_residual"] <= 1e-9


def test_runaway_fails_the_initial_closure_gate():
    """The gate's scale is max|pi| at the initial state, so the runaway of the
    spacelike-momentum element of weyssenhoff.05 cannot widen it as |pi| grows.
    State 645 is the first above the gate; it fails as the last state too."""
    el = suites._element(suites._element_draws(np.random.default_rng(11)))
    gate = 1e-3 * max(1.0, np.abs(split_momentum(el.g, el.u).pi_low).max())
    closure = integrate_worldline(el, 644, 0.01).diagnostics["closure_residual"]
    assert closure.max() <= gate
    with pytest.raises(ClosureError) as last:
        integrate_worldline(el, 645, 0.01)
    assert last.value.residual > gate
    with pytest.raises(ClosureError, match=f"residual {last.value.residual:.3e}$"):
        integrate_worldline(el, 646, 0.01)


def _rows_reference(traj):
    """The per-record writer rows of the original implementation."""
    for i in range(len(traj.tau)):
        yield [float(traj.tau[i]), *map(float, traj.x[i]), *map(float, traj.u[i]),
               *spin_components(traj.s[i]), float(traj.diagnostics["u_norm"][i]),
               float(traj.diagnostics["frenkel"][i]),
               float(traj.diagnostics["spin_invariant"][i])]


def test_writers_match_per_record_reference(tmp_path, rng):
    traj = integrate_worldline(_bounded_element(rng), 30, 0.01)
    traj.s[1] = -0.0
    traj.s[2, 1, 2] = np.nan
    traj.write_csv(tmp_path / "t.csv")
    traj.write_json(tmp_path / "t.json")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[1:] == [",".join(repr(v) for v in row) for row in _rows_reference(traj)]
    assert (tmp_path / "t.json").read_bytes() == _summary_reference(traj)


_CSV_COLUMNS = ["tau", "x0", "x1", "x2", "x3", "u0", "u1", "u2", "u3",
                "s01", "s02", "s03", "s12", "s13", "s23",
                "drift_u2", "drift_frenkel", "spin_invariant"]


def _summary_reference(traj) -> bytes:
    """json.dump bytes of the summary payload; the summary holds no per-step records."""
    sp = split_momentum(traj.g, traj.u[0])
    payload = {"g": traj.g.tolist(), "drift_summary": traj.drift_summary(),
               "run": traj.params,
               "regime": {"mu0_defined": sp.mu0_defined, "g_square": sp.g_square}}
    summary = io.StringIO()
    json.dump(payload, summary, indent=1, sort_keys=True)
    summary.write("\n")
    return summary.getvalue().encode()


def _csv_reference(traj) -> tuple:
    """(CSV bytes of csv.writer over the per-record rows, the rows)."""
    rows = list(_rows_reference(traj))
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(_CSV_COLUMNS)
    writer.writerows(rows)
    return table.getvalue().encode(), rows


@pytest.mark.parametrize("steps", [0, 1, weyssenhoff._WRITE_ROWS - 1,
                                   weyssenhoff._WRITE_ROWS + 2])
def test_writers_are_byte_identical_to_csv_and_json(tmp_path, rng, steps):
    traj = integrate_worldline(_bounded_element(rng), steps, 0.01)
    traj.x[0, 1], traj.x[steps, 2] = np.nan, -0.0
    traj.u[0, 3], traj.u[steps, 1] = np.inf, 5e-324
    traj.s[steps] = -0.0
    traj.s[steps, 0, 1], traj.s[0, 0, 2] = -np.inf, 5e-324
    traj.diagnostics["frenkel"][steps] = np.nan
    with np.errstate(invalid="ignore"):     # 0 * inf in the spin lowering
        want_csv, rows = _csv_reference(traj)
        want_json = _summary_reference(traj)
        traj.write_csv(tmp_path / "t.csv")
        traj.write_json(tmp_path / "t.json")
    special = {repr(v) for row in rows for v in row[1:15]}
    assert {"nan", "inf", "-inf", "-0.0", "5e-324"} <= special
    assert math.isnan(traj.drift_summary()["frenkel"])
    assert (tmp_path / "t.csv").read_bytes() == want_csv
    assert (tmp_path / "t.json").read_bytes() == want_json


def test_json_summary_reports_run_and_regime(tmp_path, rng):
    el = _bounded_element(rng)
    traj = integrate_worldline(el, 20, 0.01)
    traj.write_json(tmp_path / "t.json")
    payload = json.loads((tmp_path / "t.json").read_text())
    assert payload["run"] == {"steps": 20, "dtau": 0.01, "solver_tol": 1e-3}
    sp = split_momentum(el.g, el.u)
    assert payload["regime"] == {"mu0_defined": True, "g_square": sp.g_square}
    assert set(payload["drift_summary"]) == {"u_norm", "frenkel", "spin_invariant",
                                             "closure_residual"}


def test_post_processing_holds_the_arrays_and_one_block(tmp_path):
    """Integration, drift summary and writers hold the returned arrays (232 B per
    recorded state: states, tau, closure residual and three diagnostics) plus the
    temporaries of one _WRITE_ROWS block, whatever the step count.

    The rate is a zero stand-in: tracing every float of the scalar kernel would
    make the run some twenty times slower, and the kernel holds no per-step memory.
    """
    el = _bounded_element(np.random.default_rng(0))
    allowance = 2048 * weyssenhoff._WRITE_ROWS        # bytes: one block of formatted rows
    excess = []
    tracemalloc.start()
    try:
        with mock.patch.object(weyssenhoff, "_rate", lambda y, g, gate: ([0.0] * 24, 0.0)):
            for steps in (8 * weyssenhoff._WRITE_ROWS, 32 * weyssenhoff._WRITE_ROWS):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                traj = integrate_worldline(el, steps, 0.005)
                traj.write_csv(tmp_path / "t.csv")
                traj.write_json(tmp_path / "t.json")
                peak = tracemalloc.get_traced_memory()[1] - base
                held = sum(a.nbytes for a in (traj.tau, traj.x, traj.u, traj.s,
                                              *traj.diagnostics.values()))
                assert held == 232 * (steps + 1)
                excess.append(peak - held)
                del traj
    finally:
        tracemalloc.stop()
    assert max(excess) <= allowance, excess
