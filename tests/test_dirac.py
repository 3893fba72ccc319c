import itertools

import numpy as np
import pytest

from conftest import series_exp
from cosrel import dirac
from cosrel.algebra import rotation_matrix_generator
from cosrel.dirac import (GAMMA5, GAMMA_DN, GAMMA_UP, PlaneWaveState, _real_checked,
                          clifford_defect, conservation_report, density_velocity,
                          dirac_residual, dual_of_spin_form, hermiticity_defect,
                          make_plane_wave, slash, spin_form_from_dual, superpose, takabayasi)
from cosrel.minkowski import ETA


def _energy_momentum(state, x):
    """Canonical T^mu_nu at x, on the jet conservation_report evaluates it from."""
    return dirac._energy_momentum(dirac._jet(state, x))


def _boosted(rng, kappa=1.0):
    v = rng.uniform(-0.6, 0.6, 3)
    return np.array([np.sqrt(kappa ** 2 + v @ v), *v])


def test_real_checked_refuses_nan_imaginary_residue():
    with pytest.raises(ValueError, match="imaginary residue"):
        _real_checked(np.array([1, complex(2, np.nan)]), 1e-12, "x")
    assert np.array_equal(_real_checked(np.array([1, 2 + 1e-15j]), 1e-12, "x"), [1.0, 2.0])


def test_clifford_relations_all_pairs():
    assert clifford_defect() <= 1e-14
    # independent elementwise check
    for m in range(4):
        for n in range(4):
            acom = GAMMA_DN[m] @ GAMMA_DN[n] + GAMMA_DN[n] @ GAMMA_DN[m]
            assert np.abs(acom - 2 * ETA[m, n] * np.eye(4)).max() <= 1e-14


def test_hermiticity_pattern():
    assert hermiticity_defect() <= 1e-14
    assert np.abs(GAMMA_UP[0] - GAMMA_UP[0].conj().T).max() == 0.0
    for i in (1, 2, 3):
        assert np.abs(GAMMA_UP[i] + GAMMA_UP[i].conj().T).max() == 0.0


def test_gamma5_squares_to_identity():
    assert np.abs(GAMMA5 @ GAMMA5 - np.eye(4)).max() <= 1e-14


def test_rest_frame_positive_wave():
    st = make_plane_wave(np.array([1.0, 0, 0, 0]), 0, 1)
    assert np.abs(st.amplitude - np.array([1, 0, 0, 0])).max() <= 1e-14
    assert st.kappa == pytest.approx(1.0)


def test_rest_frame_negative_wave_lower_components():
    st = make_plane_wave(np.array([1.0, 0, 0, 0]), 0, -1)
    assert np.abs(st.amplitude[0, :2]).max() <= 1e-14
    assert np.abs(st.amplitude[0, 2:]).max() > 0.9


def test_off_shell_momentum_rejected():
    for p, message in (([0.1, 1.0, 0, 0], "spacelike"), ([-1.0, 0, 0, 0], "p\\^0 > 0"),
                       ([np.nan, 0, 0, 0], "finite"), ([np.inf, 0, 0, 0], "finite")):
        with pytest.raises(ValueError, match=message):
            make_plane_wave(np.array(p), 0, 1)


def test_boosted_wave_residual(rng):
    for _ in range(10):
        st = make_plane_wave(_boosted(rng), int(rng.integers(2)),
                             1 if rng.uniform() < 0.5 else -1)
        x = rng.uniform(-2, 2, 4)
        assert dirac_residual(st, x) <= 1e-12


def test_perturbed_amplitude_residual_scales():
    p = np.array([np.sqrt(1.16), 0.4, 0, 0])
    st = make_plane_wave(p, 0, 1)
    eps = 1e-3
    # push the amplitude off the kernel along a negative-frequency direction
    bad = make_plane_wave(p, 0, -1).amplitude[0]
    pert = PlaneWaveState(p, st.amplitude + eps * bad, st.kappa, 1)
    res = dirac_residual(pert, np.zeros(4))
    # oracle: the residual of the added piece alone
    oracle = eps * np.linalg.norm(
        (slash(p) - st.kappa * np.eye(4)) @ bad)
    assert res == pytest.approx(oracle, rel=1e-10)
    assert 0.1 * eps * st.kappa <= res <= 10 * eps * st.kappa


def test_null_momentum_refused():
    for p in ([1.0, 0, 0, 1.0], [1.0, 0.6, 0, 0.8]):
        with pytest.raises(ValueError, match="^p is spacelike or null"):
            make_plane_wave(np.array(p), 0, 1)


def test_current_rest_frame():
    st = make_plane_wave(np.array([1.0, 0, 0, 0]), 0, 1)
    j = takabayasi(st, np.zeros(4)).j
    assert np.abs(j - np.array([1.0, 0, 0, 0])).max() <= 1e-14


def test_current_rotation_covariance():
    st = make_plane_wave(np.array([np.sqrt(1.25), 0.5, 0, 0]), 0, 1)
    theta = 0.8
    J3 = rotation_matrix_generator(3)
    R = series_exp(theta * J3)
    # spinor rotation: exp applied to the gamma-bilinear generator
    spinor_gen = 0.25 * (GAMMA_UP[1] @ GAMMA_UP[2] - GAMMA_UP[2] @ GAMMA_UP[1])

    def mat_exp_c(A, terms=40):
        out = np.eye(4, dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, terms):
            term = term @ A / k
            out = out + term
        return out

    S = mat_exp_c(theta * spinor_gen)
    rotated = PlaneWaveState(R @ st.p[0], S @ st.amplitude[0], st.kappa, 1)
    j = takabayasi(st, np.zeros(4)).j
    jr = takabayasi(rotated, np.zeros(4)).j
    assert np.abs(jr - R @ j).max() <= 1e-12


def test_plane_wave_current_is_constant(rng):
    st = make_plane_wave(_boosted(rng), 1, 1)
    j1 = takabayasi(st, np.zeros(4)).j
    j2 = takabayasi(st, rng.uniform(-3, 3, 4)).j
    assert np.abs(j1 - j2).max() <= 1e-13


def test_density_velocity_examples():
    rho, u = density_velocity(np.array([1.0, 0, 0, 0]))
    assert rho == pytest.approx(1.0) and np.abs(u - [1, 0, 0, 0]).max() <= 1e-14
    rho2, u2 = density_velocity(np.array([3.0, 0, 0, 0]))
    assert rho2 == pytest.approx(3.0) and np.abs(u2 - u).max() <= 1e-14
    for j in ([0.0, 1.0, 0, 0], [np.nan, 0, 0, 0]):
        with pytest.raises(ValueError, match="not timelike"):
            density_velocity(np.array(j))


def test_velocity_parallel_to_momentum(rng):
    p = _boosted(rng)
    st = make_plane_wave(p, 0, 1)
    _, u = density_velocity(takabayasi(st, np.zeros(4)).j)
    assert np.abs(u - p / st.kappa).max() <= 1e-12


def test_energy_momentum_rest_frame():
    st = make_plane_wave(np.array([1.0, 0, 0, 0]), 0, 1)
    T = _energy_momentum(st, np.zeros(4))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0  # kappa (w+w)
    assert np.abs(T - expected).max() <= 1e-13


def test_energy_momentum_planewave_form(rng):
    st = make_plane_wave(_boosted(rng), 1, 1)
    x = rng.uniform(-1, 1, 4)
    T = _energy_momentum(st, x)
    j = takabayasi(st, x).j
    expected = np.einsum("m,n->mn", j, ETA @ st.p[0])  # S^mu p_nu
    assert np.abs(T - expected).max() <= 1e-12


def test_energy_momentum_trace_scalar(rng):
    st = make_plane_wave(_boosted(rng), 0, 1)
    T = _energy_momentum(st, np.zeros(4))
    psibar = st.psi(np.zeros(4)).conj() @ GAMMA_UP[0]
    Omega = float((psibar @ st.psi(np.zeros(4))).real)
    assert np.trace(T) == pytest.approx(st.kappa * Omega, abs=1e-12)


def test_antisymmetric_part_of_T_matches_independent_form(rng):
    p1, p2 = _boosted(rng), _boosted(rng)
    state = superpose(make_plane_wave(p1, 0, 1), make_plane_wave(p2, 1, 1))
    x = rng.uniform(-1, 1, 4)
    T = _energy_momentum(state, x)
    T_low = ETA @ T
    got = 0.5 * (T_low - T_low.T)
    # independent loop evaluation with lowered gammas and analytic derivatives
    psi, dpsi = state.psi(x), state.dpsi(x)
    psibar = psi.conj() @ GAMMA_UP[0]
    dpsibar = dpsi.conj().T @ GAMMA_UP[0]
    oracle = np.zeros((4, 4), dtype=complex)
    for m in range(4):
        for n in range(4):
            t_mn = 0.5j * (psibar @ GAMMA_DN[m] @ dpsi[:, n] - dpsibar[n] @ GAMMA_DN[m] @ psi)
            t_nm = 0.5j * (psibar @ GAMMA_DN[n] @ dpsi[:, m] - dpsibar[m] @ GAMMA_DN[n] @ psi)
            oracle[m, n] = 0.5 * (t_mn - t_nm)
    assert np.abs(oracle.imag).max() <= 1e-12
    assert np.abs(got - oracle.real).max() <= 1e-12


def test_spin_tensor_rest_frame_block():
    st = make_plane_wave(np.array([1.0, 0, 0, 0]), 0, 1)
    S2 = takabayasi(st, np.zeros(4)).S
    # single spatial block on the third axis, magnitude 1/4 per component
    expected = np.zeros((4, 4))
    expected[1, 2], expected[2, 1] = -0.25, 0.25
    assert np.abs(S2 - expected).max() <= 1e-13
    # the paired current over the antisymmetric index pair carries 1/2
    assert abs(S2[2, 1] - S2[1, 2]) == pytest.approx(0.5, abs=1e-13)


def test_spin_tensor_antisymmetry_and_frenkel(rng):
    for _ in range(10):
        st = make_plane_wave(_boosted(rng), int(rng.integers(2)), 1)
        x = rng.uniform(-1, 1, 4)
        tk = takabayasi(st, x)
        S3, S2 = tk.S3, tk.S
        assert np.abs(S3 + np.swapaxes(S3, 0, 1)).max() <= 1e-12
        _, u = density_velocity(tk.j)
        assert np.abs((ETA @ u) @ S2).max() <= 1e-10
        assert abs(float(u @ ETA @ u) - 1.0) <= 1e-10


def test_reduced_spin_form_equals_hermitian_form(rng):
    # independent evaluations of both gamma-product expressions
    for _ in range(5):
        p1, p2 = _boosted(rng), _boosted(rng)
        state = superpose(make_plane_wave(p1, 0, 1), make_plane_wave(p2, 1, 1))
        x = rng.uniform(-1, 1, 4)
        psi = state.psi(x)
        psibar = psi.conj() @ GAMMA_UP[0]
        reduced = np.zeros((4, 4, 4), dtype=complex)
        herm = np.zeros((4, 4, 4), dtype=complex)
        for lam, mu, nu in itertools.product(range(4), repeat=3):
            P = GAMMA_UP[mu] @ GAMMA_UP[lam] @ GAMMA_DN[nu]
            Q = GAMMA_DN[nu] @ GAMMA_UP[lam] @ GAMMA_UP[mu]
            reduced[lam, mu, nu] = -0.25j * (psibar @ P @ psi)
            herm[lam, mu, nu] = -0.125j * (psibar @ (P - Q) @ psi)
        assert np.abs(herm.imag).max() <= 1e-12
        assert np.abs(reduced.real - herm.real).max() <= 1e-12
        assert np.abs(takabayasi(state, x).S3 - herm.real).max() <= 1e-12


def test_reduced_spin_form_mismatch_is_refused(rng, monkeypatch):
    # a 1e-9 relative error in the reduced-form kernel reads ~1e-10, above the 1e-12 tolerance
    monkeypatch.setattr(dirac, "_SPIN_PRODUCT", dirac._SPIN_PRODUCT * (1 + 1e-9))
    st = make_plane_wave(_boosted(rng), 0, 1)
    with pytest.raises(ValueError, match="^reduced spin form disagrees"):
        takabayasi(st, rng.uniform(-1, 1, 4))
    two = superpose(st, make_plane_wave(_boosted(rng), 1, 1))
    with pytest.raises(ValueError, match="^reduced spin form disagrees"):
        conservation_report(two)


def _max_antisymmetric_T(state) -> float:
    """Max |T_[mn]| of the lowered energy-momentum tensor over conservation_report's points."""
    worst = 0.0
    for x in itertools.product((0.0, 0.7), repeat=4):
        T_low = ETA @ _energy_momentum(state, np.array(x))
        worst = max(worst, np.abs(0.5 * (T_low - T_low.T)).max())
    return worst


def test_single_wave_conservation(rng):
    st = make_plane_wave(_boosted(rng), 0, 1)
    rep = conservation_report(st)
    assert rep.max_residual() <= 1e-12
    assert _max_antisymmetric_T(st) <= 1e-12
    assert rep.points == 16


def test_two_wave_conservation(rng):
    state = superpose(make_plane_wave(_boosted(rng), 0, 1),
                      make_plane_wave(_boosted(rng), 1, 1))
    rep = conservation_report(state)
    assert rep.points == 16
    assert rep.max_residual() <= 1e-10
    # the angular-momentum law balances a genuine antisymmetric part of T here
    assert _max_antisymmetric_T(state) > 1e-3


def test_two_wave_conservation_negative_frequency(rng):
    state = superpose(make_plane_wave(_boosted(rng), 0, -1),
                      make_plane_wave(_boosted(rng), 1, -1))
    assert conservation_report(state).max_residual() <= 1e-10


def test_off_shell_state_reports_residual_scaling_with_perturbation():
    p = np.array([np.sqrt(1.09), 0.3, 0, 0])
    st = make_plane_wave(p, 0, 1)
    residuals = {}
    for eps in (1e-3, 1e-2):
        bad = PlaneWaveState(p, st.amplitude + eps * make_plane_wave(p, 1, -1).amplitude,
                             st.kappa, 1)
        rep = conservation_report(bad)
        residuals[eps] = rep.max_residual()
        assert rep.max_residual() > 0.01 * eps
    ratio = residuals[1e-2] / residuals[1e-3]
    assert 5 <= ratio <= 20  # leading order linear in the perturbation


def test_takabayasi_rest_frame():
    st = make_plane_wave(np.array([1.0, 0, 0, 0]), 0, 1)
    tk = takabayasi(st, np.zeros(4))
    assert tk.Omega == pytest.approx(1.0, abs=1e-13)
    assert abs(tk.Omega_hat) <= 1e-13


def test_takabayasi_modulus_identity(rng):
    for _ in range(20):
        st = make_plane_wave(_boosted(rng), int(rng.integers(2)),
                             1 if rng.uniform() < 0.5 else -1)
        x = rng.uniform(-1, 1, 4)
        tk = takabayasi(st, x)
        assert tk.Omega ** 2 + tk.Omega_hat ** 2 == pytest.approx(tk.rho ** 2, abs=1e-10)
        # independent oracle: Omega = Re(psibar psi), Omega_hat = Re(i psi* gamma0 gamma5 psi)
        psi = st.psi(x)
        psibar = psi.conj() @ GAMMA_UP[0]
        assert abs(tk.Omega - (psibar @ psi).real) <= 1e-14
        assert abs(tk.Omega_hat - (1j * psibar @ GAMMA5 @ psi).real) <= 1e-14


def test_duality_roundtrip_with_epsilon_oracle(rng):
    # independent epsilon tensor, lowered indices, eps_{0123} = +1
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        arr = list(perm)
        sign, swaps = 1, 0
        for i in range(4):
            for j in range(i + 1, 4):
                if arr[i] > arr[j]:
                    swaps += 1
        sign = -1 if swaps % 2 else 1
        eps[perm] = sign
    for _ in range(10):
        st = make_plane_wave(_boosted(rng), int(rng.integers(2)), 1)
        x = rng.uniform(-1, 1, 4)
        tk = takabayasi(st, x)
        _, u = density_velocity(tk.j)
        oracle = 0.5 * np.einsum("mnkl,k,l->mn", eps, u, tk.S_hat)
        assert np.abs(oracle - tk.S_form).max() <= 1e-12
        back = spin_form_from_dual(u, tk.S_hat)
        assert np.abs(back - tk.S_form).max() <= 1e-12
        # and the axis vector is transverse
        assert abs(float(u @ ETA @ tk.S_hat)) <= 1e-12
        again = dual_of_spin_form(u, tk.S_form)
        assert np.abs(again - tk.S_hat).max() <= 1e-12


def test_superposition_requires_matching_mass():
    a = make_plane_wave(np.array([1.0, 0, 0, 0]), 0, 1)
    b = make_plane_wave(np.array([2.0, 0, 0, 0]), 0, 1)
    for pair in ((a, b), (b, a)):
        with pytest.raises(ValueError):
            superpose(*pair)
    with pytest.raises(ValueError, match="kappa"):   # a NaN mass never reaches superpose
        PlaneWaveState(a.p, a.amplitude, np.nan, 1)


_BAD_SCALARS = [("p", [np.nan, 0, 0, 0]), ("p", [np.inf, 0, 0, 0]),
                ("amplitude", [1, 0, 0, np.nan]), ("amplitude", [1, 0, 1j * np.inf, 0]),
                ("kappa", np.nan), ("kappa", np.inf), ("kappa", -1.0)]
#: per-wave refusals: no wave, a sign other than +1/-1, an amplitude stack of another length
_BAD_WAVES = [("p", []), ("sign", 3), ("sign", 0), ("sign", np.nan), ("sign", [1, -1]),
              ("amplitude", [[1, 0, 0, 0], [0, 1, 0, 0]])]
_WAVE_RULES = {"p": "plane wave p must hold at least one wave",
               "sign": r"sign must be \+1 or -1 for each of 1 waves",
               "amplitude": r"amplitude must have one row per wave: 2 rows for 1 waves"}


@pytest.mark.parametrize("name,value", _BAD_SCALARS + _BAD_WAVES)
def test_plane_wave_state_refuses_bad_scalars(name, value):
    a = make_plane_wave(np.array([1.0, 0, 0, 0]), 0, 1)
    fields = {"p": a.p, "amplitude": a.amplitude, "kappa": a.kappa, "sign": 1}
    fields[name] = value
    rule = rf"\b{name} must be finite" if (name, value) in _BAD_SCALARS else f"^{_WAVE_RULES[name]}"
    with pytest.raises(ValueError, match=rule):
        PlaneWaveState(**fields)


def test_plane_wave_state_checks_each_wave():
    a = make_plane_wave(np.array([1.0, 0, 0, 0]), 0, 1)
    b = make_plane_wave(np.array([np.sqrt(1.25), 0.5, 0, 0]), 1, -1)
    two = superpose(a, b)
    assert two.p.shape == (2, 4) and two.amplitude.shape == (2, 4)
    assert two.sign.tolist() == [1, -1]
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1 for each of 2 waves, "
                                         r"got \[1, 3\]$"):
        PlaneWaveState(two.p, two.amplitude, two.kappa, [1, 3])
    with pytest.raises(ValueError, match="^amplitude must have one row per wave: 1 rows for 2 waves$"):
        PlaneWaveState(two.p, a.amplitude, two.kappa)
