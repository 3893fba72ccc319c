"""Each planted defect fails exactly the checks whose law it breaks.

A row swaps one library function for a broken copy, at each module that binds
it when the owner is a tuple of modules, and names the check ids that
must then report `passed: false` over all five suites; every other check must
still pass, and the report must hold every check id of the clean run.  A Dirac
row runs the dirac suite alone, a fraction of the time of all five, since its
defect reaches no other suite.  The forms suite computes its
lattice fields in forked workers, so each swap is made before the run and the
workers inherit it.  Only cosserat.04 reaches the one-sided boundary stencils of
`Lattice.gradient` (the edge-order row): every forms check reads interior points,
whose derivatives never touch them.
"""

import dataclasses

import numpy as np
import pytest

from cosrel import algebra, deformation, dirac, dynamics, lattice, suites, weyssenhoff
from cosrel.lattice import ext_d, wedge
from cosrel.minkowski import ETA
from cosrel.suites import run_suite

#: small forms grids: a full five-suite run takes a fraction of a second
OPTIONS = {"grids": (5, 9)}


def _forward_gradient(self, data, axis):
    """First-order forward differences (backward at the last point)."""
    d = np.diff(data, axis=axis) / self.spacing[axis]
    return np.concatenate([d, np.take(d, [-1], axis=axis)], axis=axis)


def _edge_order_one_gradient(self, data, axis):
    return np.gradient(data, self.spacing[axis], axis=axis, edge_order=1)


def _spacing_0_gradient(self, data, axis):
    """The axis-0 spacing on every axis."""
    return np.gradient(data, self.spacing[0], axis=axis, edge_order=2)


def _dislocation_plus_wedge(E):
    """The Lorentz part as d w + w ^ w: the sign of the structure term flipped."""
    tra = ext_d(E.tra)
    tra.data -= wedge(E.lor, E.tra).data
    lor = ext_d(E.lor)
    lor.data += wedge(E.lor, E.lor).data
    return deformation.AlgebraForm(tra, lor)


def _incompatibility_translation_flipped(Om, E):
    """The translation part as d Om.tra + Om.lor ^ xi + w ^ Om.tra: its last term added,
    not subtracted."""
    xi, om = E.tra, E.lor
    psi_t = ext_d(Om.tra)
    psi_t.data += wedge(Om.lor, xi).data
    psi_t.data += wedge(om, Om.tra).data
    return deformation.AlgebraForm(psi_t, _incompatibility(Om, E).lor)


def _ext_d_off_by_1e6(f):
    """ext_d with its output scaled by 1 + 1e-6."""
    out = ext_d(f)
    out.data *= 1 + 1e-6
    return out


def _ext_d_plus_1e9(f):
    """ext_d with 1e-9 added to every output entry."""
    out = ext_d(f)
    out.data += 1e-9
    return out


def _omega_off_by_1e9(state, x):
    """The Takabayasi record with its scalar bilinear Omega scaled by 1 + 1e-9."""
    tk = _takabayasi(state, x)
    return dataclasses.replace(tk, Omega=tk.Omega * (1 + 1e-9))


def _residual_mass_flipped(state, x):
    """dirac_residual with the sign of the mass term flipped in both equations."""
    psi, psibar, dpsi, dpsibar = dirac._jet(state, x)
    lhs = 1j * np.einsum("mab,bm->a", dirac.GAMMA_UP, dpsi) + state.kappa * psi
    lhs_bar = 1j * np.einsum("ma,mab->b", dpsibar, dirac.GAMMA_UP) - state.kappa * psibar
    return float(np.maximum(np.linalg.norm(lhs), np.linalg.norm(lhs_bar)))


def _exp_lorentz_off_by_1e6(v, w):
    """exp with its Lorentz part scaled by 1 + 1e-6."""
    a, L = _exp(v, w)
    return a, L * (1 + 1e-6)


def _bracket_translation_flipped(x, y):
    """bracket with the sign of its translation part negated."""
    v, w = _bracket(x, y)
    return -v, w


def _spin_with_raised_u(state, x):
    """The Takabayasi record with S = u^lam S^{lam mu}_nu: u left unlowered."""
    tk = _takabayasi(state, x)
    return dataclasses.replace(tk, S=np.einsum("l,lmn->mn", tk.u, tk.S3))


def _position_rate_off_by_1e6(y, g, gate):
    """The worldline rate with its position rate, dx/dtau = u, scaled by 1 + 1e-6."""
    rate, residual = _rate(y, g, gate)
    return [(1 + 1e-6) * v for v in rate[:4]] + rate[4:], residual


def _trace_off_by_1e9(element):
    """stress_tensors with the stress trace scaled by 1 + 1e-9."""
    st = _stress_tensors(element)
    return dataclasses.replace(st, trace=st.trace * (1 + 1e-9))


def _pi_unlowered(g, u):
    """split_momentum with pi = g - rho0 u: u left unlowered."""
    sp = _split_momentum(g, u)
    return dataclasses.replace(sp, pi_low=np.asarray(g, dtype=float) - sp.rho0 * np.asarray(u))


def _pi_plus_u(g, u):
    """split_momentum with pi_low = g + rho0 u_low: the u part added, not removed."""
    sp = _split_momentum(g, u)
    g = np.asarray(g, dtype=float)
    return dataclasses.replace(sp, pi_low=g + sp.rho0 * (ETA @ np.asarray(u, dtype=float)))


def _spin_form_symmetrised(state, x):
    """The Takabayasi record with the lowered spin form symmetrised, not antisymmetrised:
    S_form and S_hat go to ~0, and the duality round trip alone still closes."""
    tk = _takabayasi(state, x)
    S_low = ETA @ tk.S
    S_low = 0.5 * (S_low + S_low.T)
    return dataclasses.replace(tk, S_form=S_low, S_hat=dirac.dual_of_spin_form(tk.u, S_low))


def _waves_phase_conjugated(self, x):
    """PlaneWaveState._waves with psi_k = w_k exp(+i s_k p_k.x); the declared derivative
    factor -i s_k p_k is kept."""
    x = np.asarray(x, dtype=float)
    p_low = self.p @ ETA
    phase = (x[..., None, None, :] @ p_low[:, :, None])[..., 0, 0]
    return (self.amplitude * np.exp(1j * self.sign * phase)[..., None],
            -1j * self.sign[:, None] * p_low)


def _plane_wave_mass_reciprocal(p, spin_index, sign=1):
    """make_plane_wave with sign / kappa for sign * kappa in its amplitude: the two agree
    at unit mass only."""
    st = _make_plane_wave(p, spin_index, sign)
    rest = np.zeros(4, dtype=complex)
    rest[spin_index if sign == 1 else 2 + spin_index] = 1.0
    w = (dirac.slash(st.p[0]) + sign / st.kappa * np.eye(4)) @ rest
    w = w / np.linalg.norm(w)
    lead = w[np.argmax(np.abs(w) > 1e-12)]
    return dataclasses.replace(st, amplitude=w * (lead.conjugate() / abs(lead)))


def _bulk_couple_flipped(phi, s, dxi0, dI0):
    """total_virtual_work with the sign of the couple term in its bulk density flipped:
    the bulk is linear in the variation, and with dxi0 = 0 it is the couple term alone."""
    bulk, boundary = _total_virtual_work(phi, s, dxi0, dI0)
    couple, _ = _total_virtual_work(phi, s, np.zeros_like(dxi0), dI0)
    return bulk - 2.0 * couple, boundary


_incompatibility = deformation.incompatibility
_closure = weyssenhoff._closure
_rate = weyssenhoff._rate
_stress_tensors = weyssenhoff.stress_tensors
_split_momentum = weyssenhoff.split_momentum
_bracket = algebra.bracket
_exp = algebra.exp
_polarize = algebra.polarize
_takabayasi = dirac.takabayasi
_make_plane_wave = dirac.make_plane_wave
_total_virtual_work = dynamics.total_virtual_work
_gamma_dn_1_times_i = dirac.GAMMA_DN * np.array([1, 1j, 1, 1])[:, None, None]
_gamma_up_1_times_i = dirac.GAMMA_UP * np.array([1, 1j, 1, 1])[:, None, None]

_DISLOCATION_CHECKS = {"forms.03-dislocation-order-p2", "forms.03-dislocation-order-p3",
                       "forms.04-dislocation-norm-p2", "forms.04-dislocation-norm-p3",
                       "forms.05-bianchi-order"}

#: every module that binds ext_d: deformation and suites import it by name
_EXT_D_OWNERS = (lattice, deformation, suites)

SABOTAGE = {
    "forward-differences": (lattice.Lattice, "gradient", _forward_gradient,
                            _DISLOCATION_CHECKS | {"cosserat.03-manufactured-order",
                                                   "cosserat.04-integration-by-parts"}),
    # ext_d shares the merge sign with wedge: at seed 0 forms.01 reads 538.07, forms.02
    # 14.06 and forms.06 2.000
    "merge-sign-plus-one": (lattice, "_merge_sign", lambda A, B: 1,
                            _DISLOCATION_CHECKS | {"forms.01-dd-zero", "forms.02-wedge-antisymmetry",
                                                   "forms.06-hand-dislocation"}),
    "dislocation-plus-wedge": (deformation, "dislocation", _dislocation_plus_wedge,
                               _DISLOCATION_CHECKS),
    # forms.05 reads order -0.116 on grids (5, 9) and -0.021 on (17, 33) at seed 0; no
    # other check reaches incompatibility
    "incompatibility-translation-flipped": (deformation, "incompatibility",
                                            _incompatibility_translation_flipped,
                                            {"forms.05-bianchi-order"}),
    "edge-order-one": (lattice.Lattice, "gradient", _edge_order_one_gradient,
                       {"cosserat.04-integration-by-parts"}),
    # cosserat.04's state is unbalanced (F = 0, Mbar = 0), so its bulk term reads the
    # balance operator (0.946 on grid 9); flipped, the mismatch reads 1.10 on grid 17
    # and order -0.007 at seed 0
    "bulk-couple-flipped": (dynamics, "total_virtual_work", _bulk_couple_flipped,
                            {"cosserat.04-integration-by-parts"}),
    # forms.06 reads 0.600 on its (0.05, 0.08) lattice; every other suite lattice is a cube
    "gradient-spacing-0": (lattice.Lattice, "gradient", _spacing_0_gradient,
                           {"forms.06-hand-dislocation"}),
    # forms.06 reads 1.0e-6 at seed 0; forms.01 stays at roundoff (2.8e-14), as a scaled
    # d d f is still 0
    "ext-d-times-1+1e-6": (_EXT_D_OWNERS, "ext_d", _ext_d_off_by_1e6,
                           {"forms.06-hand-dislocation"}),
    # forms.01 and .06 both read 1.0e-9
    "ext-d-plus-1e-9": (_EXT_D_OWNERS, "ext_d", _ext_d_plus_1e9,
                        {"forms.01-dd-zero", "forms.06-hand-dislocation"}),
    # weyssenhoff.03's ungated closure solves read a rebuild error of 4.77e-2, and .05's
    # integration raises ClosureError (residual 2.276e-02); .04's element has pi = 0, so it
    # cannot see the closure
    "closure-times-1.01": (weyssenhoff, "_closure",
                           lambda s, rhs: [1.01 * a for a in _closure(s, rhs)],
                           {"weyssenhoff.03-split-rebuild", "weyssenhoff.05-drift-order"}),
    # weyssenhoff.01 reads 1.96e-9 at seed 0
    "stress-trace-times-1+1e-9": (weyssenhoff, "stress_tensors", _trace_off_by_1e9,
                                  {"weyssenhoff.01-trace-identity"}),
    # weyssenhoff.02 reads 1.48 at seed 0; .03 rebuilds through the same split, and the
    # worldline's `_rate` splits g itself
    "pi-unlowered": (weyssenhoff, "split_momentum", _pi_unlowered,
                     {"weyssenhoff.02-antisymmetric-part"}),
    # .03 reads a rebuild error of 4.77e-6; .05 runs through with an order of 4.9e-4
    "closure-times-1+1e-6": (weyssenhoff, "_closure",
                             lambda s, rhs: [(1 + 1e-6) * a for a in _closure(s, rhs)],
                             {"weyssenhoff.03-split-rebuild", "weyssenhoff.05-drift-order"}),
    # weyssenhoff.02 reads 3.915 at seed 0, its largest u.pi = 2 rho0; .03 rebuilds
    # through the same split
    "pi-plus-u": (weyssenhoff, "split_momentum", _pi_plus_u,
                  {"weyssenhoff.02-antisymmetric-part"}),
    # weyssenhoff.04 reads 4.0e-6 at seed 0: its inertial worldline no longer moves at u;
    # no other rate reads x, so .05 still reads 3.98
    "position-rate-times-1+1e-6": (weyssenhoff, "_rate", _position_rate_off_by_1e6,
                                   {"weyssenhoff.04-aligned-momentum-is-inertial"}),
    # a non-Lorentz L: the algebra checks read it; GroupField and the frame field refuse it
    # algebra.01 reads 2.0 ([d0, K1] = +d1) and algebra.02 9.17 at seed 0
    "bracket-translation-flipped": (algebra, "bracket", _bracket_translation_flipped,
                                    {"algebra.01-bracket-table", "algebra.02-jacobi"}),
    "exp-lorentz-times-1+1e-6": (algebra, "exp", _exp_lorentz_off_by_1e6,
                                 {"algebra.03-exp-orthogonality", "algebra.04-exp-determinant",
                                  "algebra.05-subgroup-law", "algebra.07-adjoint-homomorphism",
                                  "forms.03-dislocation-order-p2", "forms.03-dislocation-order-p3",
                                  "forms.04-dislocation-norm-p2", "forms.04-dislocation-norm-p3",
                                  "cosserat.01-invariant-construction",
                                  "cosserat.02-picture-crosscheck",
                                  "cosserat.03-manufactured-order",
                                  "cosserat.04-integration-by-parts"}),
    "polarize-swapped": (algebra, "polarize", lambda x: _polarize(x)[::-1],
                         {"algebra.06-polarize-projection"}),
    "omega-times-1+1e-9": (dirac, "takabayasi", _omega_off_by_1e9,
                           {"dirac.06-takabayasi-identity"}),
    "eps-up-is-eps-low": (dirac, "EPS_UP", dirac.EPS_LOW, {"dirac.08-duality-roundtrip"}),
    "gamma-dn-1-times-i": (dirac, "GAMMA_DN", _gamma_dn_1_times_i, {"dirac.01-clifford"}),
    # the hermiticity pattern reads GAMMA_UP, the Clifford check GAMMA_DN; the wave equation
    # and the two-wave currents (an imaginary vector current) read GAMMA_UP too
    "gamma-up-1-times-i": (dirac, "GAMMA_UP", _gamma_up_1_times_i,
                           {"dirac.02-hermiticity", "dirac.03-planewave-residual",
                            "dirac.07-two-wave-conservation"}),
    # takabayasi and conservation_report refuse: the reduced spin form disagrees
    "spin-product-times-1+1e-6": (dirac, "_SPIN_PRODUCT", dirac._SPIN_PRODUCT * (1 + 1e-6),
                                  {"dirac.04-velocity-normalization", "dirac.05-frenkel",
                                   "dirac.06-takabayasi-identity",
                                   "dirac.07-two-wave-conservation",
                                   "dirac.08-duality-roundtrip"}),
    "residual-mass-sign-flipped": (dirac, "dirac_residual", _residual_mass_flipped,
                                   {"dirac.03-planewave-residual"}),
    "spin-with-raised-u": (dirac, "takabayasi", _spin_with_raised_u, {"dirac.05-frenkel"}),
    # dirac.08 reads 0.25 at seed 0, from S_form against ETA S; its round trip alone
    # passes on the ~0 form
    "spin-form-symmetrised": (dirac, "takabayasi", _spin_form_symmetrised,
                              {"dirac.08-duality-roundtrip"}),
    # dirac.09 reads order -4.8e-7 at seed 0 (errors 10.10 at both steps); every other
    # check reads psi or the declared derivative alone
    "psi-phase-conjugated": (dirac.PlaneWaveState, "_waves", _waves_phase_conjugated,
                             {"dirac.09-derivative-order"}),
    # the suite's masses are drawn from [0.5, 2): dirac.03 reads 0.601 and dirac.07 0.195
    # at seed 0; at unit mass every check passed
    "mass-reciprocal": (dirac, "make_plane_wave", _plane_wave_mass_reciprocal,
                        {"dirac.03-planewave-residual", "dirac.07-two-wave-conservation"}),
}

#: rows whose defect reaches only the dirac suite, which they run alone
DIRAC_ROWS = {"omega-times-1+1e-9", "eps-up-is-eps-low", "gamma-dn-1-times-i",
              "gamma-up-1-times-i", "residual-mass-sign-flipped", "spin-with-raised-u",
              "spin-product-times-1+1e-6", "spin-form-symmetrised", "psi-phase-conjugated",
              "mass-reciprocal"}


def _run(suite) -> tuple:
    """The report's sorted check ids and the set of those that failed."""
    checks = [c for rep in run_suite(suite, 0, OPTIONS) for c in rep.checks]
    return sorted(c.check_id for c in checks), {c.check_id for c in checks if not c.passed}


@pytest.mark.parametrize("row", SABOTAGE)
def test_planted_defect_fails_exactly_its_checks(row, monkeypatch, fork_pools):
    owner, name, broken, expected = SABOTAGE[row]
    suite = "dirac" if row in DIRAC_ROWS else "all"
    monkeypatch.setattr(weyssenhoff, "_cpus", lambda: 2)    # the forms fields run in a worker
    clean_ids, failing = _run(suite)
    assert failing == set()
    for one in owner if isinstance(owner, tuple) else (owner,):
        monkeypatch.setattr(one, name, broken)
    ids, failing = _run(suite)
    assert ids == clean_ids
    assert failing == expected
    if suite == "all":
        assert len(fork_pools) == 2                     # one pool per run, forked with the swap


def test_every_check_has_a_planted_defect():
    """The rows' expected sets cover every check id of a clean run: no check goes unsabotaged."""
    ids, failing = _run("all")
    assert failing == set()
    assert set().union(*(expected for *_, expected in SABOTAGE.values())) == set(ids)
