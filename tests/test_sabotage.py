"""Each planted defect fails exactly the checks whose law it breaks.

A row swaps one library function for a broken copy and names the check ids that
must then report `passed: false` over all five suites; every other check must
still pass.  A Dirac row runs the dirac suite alone, a fraction of the time of
all five, since its defect reaches no other suite.  The forms suite computes its
lattice fields in forked workers, so each swap is made before the run and the
workers inherit it.  Only cosserat.04 reaches the one-sided boundary stencils of
`Lattice.gradient` (the edge-order row): every forms check reads interior points,
whose derivatives never touch them.
"""

import dataclasses

import numpy as np
import pytest

from cosrel import algebra, deformation, dirac, lattice, weyssenhoff
from cosrel.lattice import ext_d, wedge
from cosrel.suites import run_suite

#: small forms grids: a full five-suite run takes a fraction of a second
OPTIONS = {"grids": (5, 9)}


def _forward_gradient(self, data, axis):
    """First-order forward differences (backward at the last point)."""
    d = np.diff(data, axis=axis) / self.spacing[axis]
    return np.concatenate([d, np.take(d, [-1], axis=axis)], axis=axis)


def _edge_order_one_gradient(self, data, axis):
    return np.gradient(data, self.spacing[axis], axis=axis, edge_order=1)


def _dislocation_plus_wedge(E):
    """The Lorentz part as d w + w ^ w: the sign of the structure term flipped."""
    tra = ext_d(E.tra)
    tra.data -= wedge(E.lor, E.tra).data
    lor = ext_d(E.lor)
    lor.data += wedge(E.lor, E.lor).data
    return deformation.AlgebraForm(tra, lor)


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


def _spin_with_raised_u(state, x):
    """The Takabayasi record with S = u^lam S^{lam mu}_nu: u left unlowered."""
    tk = _takabayasi(state, x)
    return dataclasses.replace(tk, S=np.einsum("l,lmn->mn", tk.u, tk.S3))


_closure = weyssenhoff._closure
_polarize = algebra.polarize
_takabayasi = dirac.takabayasi
_gamma_dn_1_times_i = dirac.GAMMA_DN * np.array([1, 1j, 1, 1])[:, None, None]

_DISLOCATION_CHECKS = {"forms.03-dislocation-order-p2", "forms.03-dislocation-order-p3",
                       "forms.04-dislocation-norm-p2", "forms.04-dislocation-norm-p3",
                       "forms.05-bianchi-order"}

SABOTAGE = {
    "forward-differences": (lattice.Lattice, "gradient", _forward_gradient,
                            _DISLOCATION_CHECKS | {"cosserat.03-manufactured-order",
                                                   "cosserat.04-integration-by-parts"}),
    "merge-sign-plus-one": (lattice, "_merge_sign", lambda A, B: 1,
                            _DISLOCATION_CHECKS | {"forms.02-wedge-antisymmetry"}),
    "dislocation-plus-wedge": (deformation, "dislocation", _dislocation_plus_wedge,
                               _DISLOCATION_CHECKS),
    "edge-order-one": (lattice.Lattice, "gradient", _edge_order_one_gradient,
                       {"cosserat.04-integration-by-parts"}),
    "closure-times-1.01": (weyssenhoff, "_closure",
                           lambda s, rhs: [1.01 * a for a in _closure(s, rhs)],
                           {"weyssenhoff.error"}),
    "polarize-swapped": (algebra, "polarize", lambda x: _polarize(x)[::-1],
                         {"algebra.06-polarize-projection"}),
    "omega-times-1+1e-9": (dirac, "takabayasi", _omega_off_by_1e9,
                           {"dirac.06-takabayasi-identity"}),
    "eps-up-is-eps-low": (dirac, "EPS_UP", dirac.EPS_LOW, {"dirac.08-duality-roundtrip"}),
    "gamma-dn-1-times-i": (dirac, "GAMMA_DN", _gamma_dn_1_times_i, {"dirac.01-clifford"}),
    "residual-mass-sign-flipped": (dirac, "dirac_residual", _residual_mass_flipped,
                                   {"dirac.03-planewave-residual"}),
    "spin-with-raised-u": (dirac, "takabayasi", _spin_with_raised_u, {"dirac.05-frenkel"}),
}

#: rows whose defect reaches only the dirac suite, which they run alone
DIRAC_ROWS = {"omega-times-1+1e-9", "eps-up-is-eps-low", "gamma-dn-1-times-i",
              "residual-mass-sign-flipped", "spin-with-raised-u"}


def _failing(suite) -> set:
    return {c.check_id for rep in run_suite(suite, 0, OPTIONS) for c in rep.checks
            if not c.passed}


@pytest.mark.parametrize("row", SABOTAGE)
def test_planted_defect_fails_exactly_its_checks(row, monkeypatch, fork_pools):
    owner, name, broken, expected = SABOTAGE[row]
    suite = "dirac" if row in DIRAC_ROWS else "all"
    monkeypatch.setattr(lattice, "_cpus", lambda: 2)    # the forms fields run in a worker
    assert _failing(suite) == set()
    monkeypatch.setattr(owner, name, broken)
    assert _failing(suite) == expected
    if suite == "all":
        assert len(fork_pools) == 2                     # one pool per run, forked with the swap
