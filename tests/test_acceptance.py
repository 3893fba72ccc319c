"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np

from cosrel import algebra, deformation, dirac, dynamics, weyssenhoff
from cosrel.cli import main
from cosrel.kinematics import prolong
from cosrel.lattice import Lattice
from cosrel.minkowski import ETA
from cosrel.poincare import compose


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


_BASIS_V, _BASIS_W = algebra.basis()


def _random_algebra(rng, scale=1.0):
    """The (v, w) slices of an element with uniform basis coefficients in [-scale, scale]."""
    coeffs = rng.uniform(-scale, scale, 10)
    return coeffs @ _BASIS_V, np.tensordot(coeffs, _BASIS_W, 1)


def test_criterion_1_bracket_tables_and_jacobi():
    t0 = time.perf_counter()
    # integer bracket table, built from independent structure constants
    eps = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
           (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1}
    names = algebra.BASIS_NAMES  # translations, rotations, boosts: pairs match the table layout
    V, W = dict(zip(names, _BASIS_V)), dict(zip(names, _BASIS_W))
    pairs = 0
    exact = True
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            got_v, got_w = algebra.bracket((V[na], W[na]), (V[nb], W[nb]))
            want_v = np.zeros(4)
            want_w = np.zeros((4, 4))
            if na[0] == "d" and nb[0] in "JK":
                mu, k = int(na[1]), int(nb[1])
                if nb[0] == "J" and mu != 0:
                    for l in (1, 2, 3):
                        if (mu, k, l) in eps:
                            want_v += eps[(mu, k, l)] * V[f"d{l}"]
                if nb[0] == "K":
                    if mu == 0:
                        want_v -= V[f"d{k}"]
                    elif mu == k:
                        want_v -= V["d0"]
            elif na[0] in "JK" and nb[0] in "JK":
                i1, j1 = int(na[1]), int(nb[1])
                for l in (1, 2, 3):
                    e = eps.get((i1, j1, l), 0)
                    if not e:
                        continue
                    if na[0] == "J" and nb[0] == "J":
                        want_w += e * W[f"J{l}"]
                    elif na[0] == "J" and nb[0] == "K":
                        want_w += e * W[f"K{l}"]
                    elif na[0] == "K" and nb[0] == "K":
                        want_w -= e * W[f"J{l}"]
            exact &= np.array_equal(got_v, want_v) and np.array_equal(got_w, want_w)
            pairs += 1
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        x, y, z = (_random_algebra(rng) for _ in range(3))
        # the v and w parts are summed apart: + on the (v, w) tuples would concatenate them
        parts = zip(algebra.bracket(algebra.bracket(x, y), z),
                    algebra.bracket(algebra.bracket(y, z), x),
                    algebra.bracket(algebra.bracket(z, x), y))
        worst = max(worst, *(np.abs(sum(p)).max() for p in parts))
    elapsed = time.perf_counter() - t0
    _report("1-bracket-tables",
            exact and pairs == 45 and worst <= 1e-12 and elapsed < 1.0,
            f"(45 pairs exact={exact}, jacobi={worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_group_algebra_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_orth = worst_det = 0.0
    for _ in range(1000):
        _, L = algebra.exp(*_random_algebra(rng))
        worst_orth = max(worst_orth, np.abs(L.T @ ETA @ L - ETA).max())
        worst_det = max(worst_det, abs(np.linalg.det(L) - 1.0))
    worst_law = 0.0
    for _ in range(200):
        v, w = _random_algebra(rng)
        s, t = rng.uniform(-1, 1, 2)
        left = compose(algebra.exp(s * v, s * w), algebra.exp(t * v, t * w))
        right = algebra.exp((s + t) * v, (s + t) * w)
        worst_law = max(worst_law, *(np.abs(lp - rp).max() for lp, rp in zip(left, right)))
    elapsed = time.perf_counter() - t0
    _report("2-group-algebra",
            worst_orth <= 1e-10 and worst_det <= 1e-9 and worst_law <= 1e-9
            and elapsed < 5.0,
            f"(orth={worst_orth:.2e}, det={worst_det:.2e}, law={worst_law:.2e}, {elapsed:.1f}s)")


def _displacement_closure(which, J3, K1, J1):
    """Field `which` on the whole lattice; one stacked scipy expm call exponentiates W."""
    import scipy.linalg

    def fn(x):
        r = sum(x)
        if which == 0:
            W = [(0.3 * np.sin(x[0] + 0.5 * x[1]), J3), (0.2 * np.cos(r), K1)]
            a = [0.2 * np.sin(r), 0.1 * x[0], -0.15 * np.cos(x[1]), 0.05 * r]
        elif which == 1:
            W = [(0.25 * np.cos(x[0]), J1), (0.15 * np.sin(x[-1] + 0.3), K1),
                 (0.2 * np.sin(0.7 * r), J3)]
            a = [0.1 * r, 0.2 * np.cos(x[0]), 0.1 * np.sin(r), 0.0]
        else:
            W = [(0.2 * np.sin(r), J3), (0.1 * x[0], K1), (0.15 * np.cos(x[-1]), J1)]
            a = [0.05 * np.sin(x[0]), 0.1 * r, 0.0, 0.2 * np.cos(r)]
        W = sum(c[..., None, None] * G for c, G in W)
        return np.stack(np.broadcast_arrays(*a), axis=-1), scipy.linalg.expm(W)

    return fn


def test_criterion_3_nabla_squared_vanishes():
    t0 = time.perf_counter()
    J3 = algebra.rotation_matrix_generator(3)
    J1 = algebra.rotation_matrix_generator(1)
    K1 = algebra.boost_matrix_generator(1)
    ok = True
    detail = []
    for p in (2, 3):
        for which in range(3):
            norms = {}
            for n in (17, 33):
                lat = Lattice((n,) * p, (1.0 / (n - 1),) * p)
                g = deformation.GroupField.from_function(
                    lat, _displacement_closure(which, J3, K1, J1))
                norms[n] = deformation.dislocation(deformation.nabla_group(g)).interior_max()
            ratio = norms[17] / norms[33]
            ok &= 3.5 <= ratio <= 4.5 and norms[33] <= 1e-3
            detail.append(f"p{p}f{which}:r={ratio:.2f},n={norms[33]:.1e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report("3-dislocation-vanishes", ok, f"({'; '.join(detail)}, {elapsed:.1f}s)")


def test_criterion_4_bianchi_identity():
    J3 = algebra.rotation_matrix_generator(3)
    K1 = algebra.boost_matrix_generator(1)
    norms = {}
    for n in (17, 33):
        lat = Lattice((n,) * 3, (1.0 / (n - 1),) * 3)
        r = lat.coords()
        from cosrel.lattice import FormField
        xi = np.zeros(lat.shape + (3, 4))
        om = np.zeros(lat.shape + (3, 4, 4))
        xi[..., 0, 1] = 0.4 * np.sin(r[0] + 0.7 * r[1])
        xi[..., 1, 0] = 0.3 * np.cos(r[1] + 0.5 * r[2])
        xi[..., 2, 3] = 0.2 * np.sin(r[0] + r[2])
        om[..., 0, :, :] = (0.3 * np.cos(r[1]))[..., None, None] * J3
        om[..., 1, :, :] = (0.25 * np.sin(r[0] + r[2]))[..., None, None] * K1
        om[..., 2, :, :] = (0.2 * np.sin(r[1] + 0.3))[..., None, None] * (J3 + K1)
        E = deformation.AlgebraForm(FormField(lat, 1, xi), FormField(lat, 1, om))
        norms[n] = deformation.incompatibility(deformation.dislocation(E), E).interior_max()
    order = math.log2(norms[17] / norms[33])
    _report("4-bianchi-identity", 1.7 <= order <= 2.3, f"(order={order:.2f})")


def test_criterion_5_cosserat_residuals():
    import scipy.linalg
    J3 = algebra.rotation_matrix_generator(3)
    K1 = algebra.boost_matrix_generator(1)

    def state_fn(c):
        r = sum(c)
        x = np.zeros(r.shape + (4,))
        x[..., :2] = np.stack(c, axis=-1)
        x[..., 0] += 0.1 * np.sin(r)
        x[..., 3] = 0.2 * np.cos(c[0])
        return x, scipy.linalg.expm((0.2 * np.sin(c[0]))[..., None, None] * J3
                                    + (0.1 * np.cos(r))[..., None, None] * K1)

    def manufactured(lat):
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
        div_mubar = np.cos(r0)[..., None, None] * A1 - np.sin(r1)[..., None, None] * A1
        return sigma, div_sigma, mubar, div_mubar

    def realize(lat, s, sigma, F, mubar_t, Mbar_t):
        e_low_t = np.einsum("...jk,jl->...kl", s.e, ETA)
        inv = np.linalg.inv(e_low_t)
        x_low = s.x @ ETA
        sig_x = 0.5 * (np.einsum("...ai,...j->...aij", sigma, x_low)
                       - np.einsum("...aj,...i->...aij", sigma, x_low))
        mu = np.einsum("...aij,...jk->...aik", mubar_t - sig_x, inv)
        phi0 = dynamics.DynamicalState(lat, F, np.zeros(lat.shape + (4, 4)), sigma, mu)
        Mbar0, _ = dynamics.barred_moments(phi0, s)
        M = np.einsum("...ij,...jk->...ik", Mbar_t - Mbar0, inv)
        return dynamics.DynamicalState(lat, F, M, sigma, mu)

    norms = {}
    for n in (9, 17):
        lat = Lattice((n, n), (1.0 / (n - 1),) * 2)
        s = prolong(lat, state_fn)
        sigma, div_sigma, mubar, div_mubar = manufactured(lat)
        phi = realize(lat, s, sigma, div_sigma, mubar, div_mubar)
        r1, r2 = dynamics.cosserat_residual(phi, s)
        sel = lat.interior() + (Ellipsis,)
        norms[n] = max(np.abs(r1[sel]).max(), np.abs(r2[sel]).max())
    order = math.log2(norms[9] / norms[17])

    lat = Lattice((9, 9), (0.125, 0.125))
    s = prolong(lat, state_fn)
    rng = np.random.default_rng(4)
    sigma = rng.standard_normal(lat.shape + (2, 4))
    mu = rng.standard_normal(lat.shape + (2, 4, 4))
    phi0 = dynamics.DynamicalState(lat, np.zeros(lat.shape + (4,)),
                                   np.zeros(lat.shape + (4, 4)), sigma, mu)
    Mbar0, _ = dynamics.barred_moments(phi0, s)
    e_low_t = np.einsum("...jk,jl->...kl", s.e, ETA)
    M = np.einsum("...ij,...jk->...ik", -Mbar0, np.linalg.inv(e_low_t))
    phi_inv = dynamics.DynamicalState(lat, phi0.F, M, sigma, mu)
    rF, rM = dynamics.poincare_invariance_residual(phi_inv, s)

    phi_r = dynamics.DynamicalState(lat, rng.standard_normal(lat.shape + (4,)),
                                    rng.standard_normal(lat.shape + (4, 4)),
                                    rng.standard_normal(lat.shape + (2, 4)),
                                    rng.standard_normal(lat.shape + (2, 4, 4)))

    def anti(shape):
        raw = rng.standard_normal(shape)
        low = 0.5 * (raw - np.swapaxes(raw, -1, -2))
        return np.einsum("ij,...jk->...ik", ETA, low)

    var_e = dynamics.EulerianVariation(rng.standard_normal(lat.shape + (4,)),
                                       anti(lat.shape + (4, 4)),
                                       rng.standard_normal(lat.shape + (2, 4)),
                                       anti(lat.shape + (2, 4, 4)))
    var_l = dynamics.lagrangian_of(var_e, s)
    d1 = dynamics.virtual_work_density(phi_r, s, var_l)
    d2 = dynamics.virtual_work_density(phi_r, s, var_e)
    cross = np.abs(d1 - d2).max() / max(1.0, np.abs(d1).max())

    ok = 1.7 <= order <= 2.3 and max(rF, rM) <= 1e-12 and cross <= 1e-12
    _report("5-cosserat-residuals", ok,
            f"(order={order:.2f}, invariance={max(rF, rM):.1e}, crosscheck={cross:.1e})")


def test_criterion_6_dirac_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    clifford = dirac.clifford_defect()
    worst_res = worst_u = worst_us = worst_eq = worst_forms = 0.0
    for _ in range(20):
        v = rng.uniform(-0.6, 0.6, 3)
        p = np.array([math.sqrt(1 + v @ v), *v])
        st = dirac.make_plane_wave(p, int(rng.integers(2)), 1 if rng.uniform() < 0.5 else -1)
        x = rng.uniform(-1, 1, 4)
        worst_res = max(worst_res, dirac.dirac_residual(st, x))
        tk = dirac.takabayasi(st, x)
        j, S3, S2 = tk.j, tk.S3, tk.S
        rho, u = dirac.density_velocity(j)
        worst_u = max(worst_u, abs(float(u @ ETA @ u) - 1.0))
        worst_us = max(worst_us, float(np.abs((ETA @ u) @ S2).max()))
        psibar = st.psi(x).conj() @ dirac.GAMMA_UP[0]
        reduced = -0.25j * np.einsum("a,mab,lbc,ncd,d->lmn", psibar,
                                     dirac.GAMMA_UP, dirac.GAMMA_UP, dirac.GAMMA_DN,
                                     st.psi(x))
        worst_forms = max(worst_forms, float(np.abs(reduced.real - S3).max()))
        Om = float((psibar @ st.psi(x)).real)
        Omh = float((1j * psibar @ dirac.GAMMA5 @ st.psi(x)).real)
        worst_eq = max(worst_eq, abs(Om ** 2 + Omh ** 2 - rho ** 2))
    v1, v2 = rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3)
    two = dirac.superpose(
        dirac.make_plane_wave(np.array([math.sqrt(1 + v1 @ v1), *v1]), 0, 1),
        dirac.make_plane_wave(np.array([math.sqrt(1 + v2 @ v2), *v2]), 1, 1))
    rep = dirac.conservation_report(two)
    elapsed = time.perf_counter() - t0
    ok = (clifford <= 1e-14 and worst_res <= 1e-12 and worst_u <= 1e-10
          and worst_us <= 1e-10 and worst_forms <= 1e-12
          and rep.points == 16 and rep.max_residual() <= 1e-10
          and worst_eq <= 1e-10 and elapsed < 2.0)
    _report("6-dirac-suite", ok,
            f"(clifford={clifford:.1e}, wave={worst_res:.1e}, u2={worst_u:.1e}, "
            f"uS={worst_us:.1e}, forms={worst_forms:.1e}, conserve={rep.max_residual():.1e}, "
            f"takabayasi={worst_eq:.1e}, {elapsed:.2f}s)")


def test_criterion_7_weyssenhoff():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_tr = worst_round = 0.0
    for _ in range(25):
        v = rng.uniform(-0.4, 0.4, 3)
        gamma = 1.0 / math.sqrt(1 - v @ v)
        u = gamma * np.array([1.0, *v])
        P = weyssenhoff.frenkel_projector(u)
        raw = rng.standard_normal((4, 4))
        s = P @ (ETA @ (0.5 * (raw - raw.T))) @ P
        rho0 = rng.uniform(0.5, 2.0)
        el0 = weyssenhoff.WeyssenhoffElement(np.zeros(4), u, rho0 * (ETA @ u), s)
        a_seed = P @ rng.standard_normal(4)
        pi = weyssenhoff.transverse_momentum(el0, a_seed)
        g = rho0 * (ETA @ u) + ETA @ pi
        el = weyssenhoff.WeyssenhoffElement(np.zeros(4), u, g, s)
        st = weyssenhoff.stress_tensors(el)
        sp = weyssenhoff.split_momentum(el.g, el.u)
        worst_tr = max(worst_tr, abs(st.trace - sp.rho0))
        g2 = weyssenhoff.momentum_from_state(el, a_seed)
        sp2 = weyssenhoff.split_momentum(g2, el.u)
        worst_round = max(worst_round, abs(sp2.rho0 - sp.rho0),
                          float(np.abs(sp2.pi_low - ETA @ pi).max()))

    rest = weyssenhoff.WeyssenhoffElement(
        np.zeros(4), np.array([1.0, 0, 0, 0]),
        np.array([1.3, 0.4, -0.1, 0.2]), np.zeros((4, 4)))
    T = weyssenhoff.stress_tensors(rest).T
    layout_ok = (abs(T[0, 0] - 1.3) <= 1e-12
                 and np.abs(T[0, 1:] - [0.4, -0.1, 0.2]).max() <= 1e-12
                 and np.abs(T[1:, :]).max() <= 1e-12)

    el = weyssenhoff.WeyssenhoffElement(
        np.zeros(4), np.array([1.0, 0, 0, 0]), np.array([1.5, 0, 0, 0]),
        np.zeros((4, 4)))
    straight = weyssenhoff.integrate_worldline(el, 2000, 0.01)
    dev_straight = max(np.abs(straight.u - el.u).max(),
                       np.abs(straight.x - np.outer(straight.tau, el.u)).max())

    v = np.array([0.2, -0.1, 0.15])
    gamma = 1.0 / math.sqrt(1 - v @ v)
    u = gamma * np.array([1.0, *v])
    P = weyssenhoff.frenkel_projector(u)
    raw = np.array([[0, 0.4, -0.2, 0.1], [-0.4, 0, 0.3, 0], [0.2, -0.3, 0, 0.2],
                    [-0.1, 0, -0.2, 0]])
    s = P @ (ETA @ raw) @ P
    el_pi0 = weyssenhoff.WeyssenhoffElement(np.zeros(4), u, 1.2 * (ETA @ u), s)
    const_u = weyssenhoff.integrate_worldline(el_pi0, 2000, 0.01)
    dev_const = np.abs(const_u.u - u).max()

    rng2 = np.random.default_rng(11)
    v = rng2.uniform(-0.4, 0.4, 3)
    gamma = 1.0 / math.sqrt(1 - v @ v)
    u = gamma * np.array([1.0, *v])
    P = weyssenhoff.frenkel_projector(u)
    raw = rng2.standard_normal((4, 4))
    s = P @ (ETA @ (0.5 * (raw - raw.T))) @ P
    rho0 = 1.1
    el0 = weyssenhoff.WeyssenhoffElement(np.zeros(4), u, rho0 * (ETA @ u), s)
    a_seed = P @ rng2.standard_normal(4)
    pi = weyssenhoff.transverse_momentum(el0, a_seed)
    # keep g timelike (bounded zitter motion): |pi| well below rho0 c
    pi *= 0.3 * rho0 / math.sqrt(-float(pi @ ETA @ pi))
    g = rho0 * (ETA @ u) + ETA @ pi
    el = weyssenhoff.WeyssenhoffElement(np.zeros(4), u, g, s)
    assert weyssenhoff.split_momentum(g, u).mu0_defined
    drifts = {}
    for dtau, steps in ((0.005, 10000), (0.0025, 20000)):
        traj = weyssenhoff.integrate_worldline(el, steps, dtau)
        ds = traj.drift_summary()
        drifts[dtau] = max(ds["u_norm"], ds["frenkel"])
    order = math.log2(drifts[0.005] / drifts[0.0025])

    elapsed = time.perf_counter() - t0
    ok = (worst_tr <= 1e-12 and layout_ok and worst_round <= 1e-12
          and order >= 3.7 and dev_straight <= 1e-10 and dev_const <= 1e-10
          and elapsed < 20.0)
    _report("7-weyssenhoff", ok,
            f"(trace={worst_tr:.1e}, layout={layout_ok}, roundtrip={worst_round:.1e}, "
            f"order={order:.2f}, straight={dev_straight:.1e}, const-u={dev_const:.1e}, "
            f"{elapsed:.1f}s)")


def test_criterion_8_cli_determinism(tmp_path):
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "runtime_ms"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    blobs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.json"
        code = main(["--suite", "algebra", "--json", str(path), "--seed", "123"])
        assert code == 0
        blobs.append(json.dumps(strip(json.loads(path.read_text())),
                                sort_keys=True).encode())
    _report("8-cli-determinism", blobs[0] == blobs[1],
            f"({len(blobs[0])} bytes compared)")
