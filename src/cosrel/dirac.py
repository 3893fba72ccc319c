"""Gamma-matrix algebra, plane-wave states, conserved currents and their decomposition.

All spacetime derivatives of plane-wave states (one or more waves) are analytic;
nothing here differentiates on a grid.  hbar and c are explicit state scalars
(default 1), so the dimensional prefactors of the currents stay traceable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .minkowski import ETA, four_vector

_C = np.complex128

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=_C),
    np.array([[0, -1j], [1j, 0]], dtype=_C),
    np.array([[1, 0], [0, -1]], dtype=_C),
)


def _block(a, b, c, d):
    return np.block([[a, b], [c, d]])


_I2 = np.eye(2, dtype=_C)
_Z2 = np.zeros((2, 2), dtype=_C)

#: gamma^0 = diag(I, -I); gamma^i with off-diagonal Pauli blocks (Dirac representation).
GAMMA_UP = np.stack([_block(_I2, _Z2, _Z2, -_I2)]
                    + [_block(_Z2, s, -s, _Z2) for s in PAULI])
GAMMA_DN = np.stack([ETA[m, m] * GAMMA_UP[m] for m in range(4)])
GAMMA5 = 1j * GAMMA_UP[0] @ GAMMA_UP[1] @ GAMMA_UP[2] @ GAMMA_UP[3]
for _g in (GAMMA_UP, GAMMA_DN, GAMMA5):
    _g.setflags(write=False)


def clifford_defect() -> float:
    """Max-norm defect of gamma_mu gamma_nu + gamma_nu gamma_mu = 2 eta_{mu nu}."""
    acom = GAMMA_DN[:, None] @ GAMMA_DN[None] + GAMMA_DN[None] @ GAMMA_DN[:, None]
    return float(np.abs(acom - 2 * ETA[:, :, None, None] * np.eye(4)).max())


def hermiticity_defect() -> float:
    """gamma^0 Hermitian, the spatial three anti-Hermitian."""
    adjoint = np.diag(ETA)[:, None, None] * GAMMA_UP.conj().swapaxes(-1, -2)
    return float(np.abs(GAMMA_UP - adjoint).max())


def _levi_civita() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        eps[perm] = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
    return eps


#: epsilon_{0123} = +1, indices lowered; raising all four flips the sign.
EPS_LOW = _levi_civita()
EPS_UP = -EPS_LOW
EPS_LOW.setflags(write=False)
EPS_UP.setflags(write=False)


def slash(p) -> np.ndarray:
    """gamma^mu p_mu for a contravariant 4-vector p."""
    p_low = ETA @ np.asarray(p, dtype=float)
    return np.einsum("m,mab->ab", p_low, GAMMA_UP)


def _check_units(hbar, c):
    for name, value in (("hbar", hbar), ("c", c)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class PlaneWaveState:
    """psi(x) = sum_k w_k exp(-i s_k p_k.x) with s_k = +1/-1 and (gamma.p_k - s_k kappa) w_k = 0.

    N >= 1 waves of one mass: p and amplitude are (N, 4) stacks and sign is (N,).
    A single wave may be passed unstacked, and a scalar sign holds for every wave.
    """

    p: np.ndarray
    amplitude: np.ndarray
    kappa: float
    sign: np.ndarray = 1
    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        _check_units(self.hbar, self.c)
        p = np.asarray(self.p, dtype=float).reshape(-1, 4)
        amplitude = np.asarray(self.amplitude, dtype=_C).reshape(-1, 4)
        if not len(p):
            raise ValueError("plane wave p must hold at least one wave")
        for name, value in (("p", p), ("amplitude", amplitude)):
            if not np.isfinite(value).all():
                raise ValueError(f"plane wave {name} must be finite")
        if len(amplitude) != len(p):
            raise ValueError(f"amplitude must have one row per wave: "
                             f"{len(amplitude)} rows for {len(p)} waves")
        sign = np.asarray(self.sign).reshape(-1)
        if sign.size == 1:
            sign = np.repeat(sign, len(p))
        if len(sign) != len(p) or not np.isin(sign, (1, -1)).all():
            raise ValueError(f"sign must be +1 or -1 for each of {len(p)} waves, "
                             f"got {sign.tolist()}")
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "amplitude", amplitude)
        object.__setattr__(self, "sign", sign.astype(int))

    def _waves(self, x):
        """Per wave in order: its psi_k(x) and -i s_k p_k with p_k lowered."""
        x = np.asarray(x, dtype=float)
        for p, w, s in zip(self.p, self.amplitude, self.sign.tolist()):
            p_low = ETA @ p
            yield w * np.exp(-1j * s * float(p_low @ x)), -1j * s * p_low

    def psi(self, x) -> np.ndarray:
        return sum(psi for psi, _ in self._waves(x))

    def dpsi(self, x) -> np.ndarray:
        """Analytic d_nu psi, laid out [component, nu]."""
        return sum(np.einsum("a,n->an", psi, k) for psi, k in self._waves(x))

    def d2psi(self, x) -> np.ndarray:
        """Analytic d_nu d_mu psi, laid out [component, nu, mu]."""
        return sum(np.einsum("a,n,m->anm", psi, k, k) for psi, k in self._waves(x))


def superpose(*states) -> PlaneWaveState:
    """One state holding the waves of every given state, in order; all share kappa, hbar and c."""
    if not states:
        raise ValueError("empty superposition")
    first = states[0]
    for st in states[1:]:
        if not abs(st.kappa - first.kappa) <= 1e-12 or st.hbar != first.hbar or st.c != first.c:
            raise ValueError("superposed waves must share kappa, hbar and c")
    p, amplitude, sign = (np.concatenate([getattr(st, f) for st in states])
                          for f in ("p", "amplitude", "sign"))
    return PlaneWaveState(p, amplitude, first.kappa, sign, first.hbar, first.c)


#: Mass-shell tolerance: p with p.p <= _SHELL_TOL is spacelike or null and has no massive shell.
_SHELL_TOL = 1e-10


def make_plane_wave(p, spin_index: int, sign: int = 1, hbar: float = 1.0,
                    c: float = 1.0) -> PlaneWaveState:
    """Massive plane-wave solution with unit amplitude norm.

    p must be timelike; the amplitude is the boost of a rest-frame basis spinor.
    """
    _check_units(hbar, c)
    p = four_vector(p)
    if spin_index not in (0, 1):
        raise ValueError("spin_index must be 0 or 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    psq = float(p @ ETA @ p)
    if not psq > _SHELL_TOL:
        raise ValueError(f"p is spacelike or null (p.p = {psq:.3e}); no massive shell")
    if sign == 1 and p[0] <= 0:
        raise ValueError("positive-frequency wave needs p^0 > 0")
    kappa = float(np.sqrt(psq))
    rest = np.zeros(4, dtype=_C)
    rest[spin_index if sign == 1 else 2 + spin_index] = 1.0
    w = (slash(p) + sign * kappa * np.eye(4)) @ rest
    nrm = float(np.sqrt(np.vdot(w, w).real))
    if nrm < 1e-14:
        raise ValueError("degenerate amplitude for the requested spin/sign")
    w = w / nrm
    lead = w[np.argmax(np.abs(w) > 1e-12)]
    w = w * (lead.conjugate() / abs(lead))  # fixed phase: leading component real positive
    return PlaneWaveState(p, w, kappa, sign, hbar, c)


def _jet(state, x) -> tuple:
    """(psi, psibar, d_nu psi [component, nu], d_nu psibar [nu, component]) at x."""
    psi, dpsi = state.psi(x), state.dpsi(x)
    return psi, psi.conj() @ GAMMA_UP[0], dpsi, dpsi.conj().T @ GAMMA_UP[0]


def _bilinear(psibar, K, psi) -> np.ndarray:
    """psibar K psi for a kernel stack K (..., 4, 4)."""
    return np.einsum("a,...ab,b->...", psibar, K, psi)


def _dbilinear(jet, K) -> np.ndarray:
    """d_sigma (psibar K psi) by the product rule, laid out [sigma, ...]."""
    psi, psibar, dpsi, dpsibar = jet
    return (np.einsum("sa,...ab,b->s...", dpsibar, K, psi)
            + np.einsum("a,...ab,bs->s...", psibar, K, dpsi))


def dirac_residual(state, x) -> float:
    """Norm of i gamma^mu d_mu psi - kappa psi, and of the conjugate equation."""
    psi, psibar, dpsi, dpsibar = _jet(state, x)
    lhs = 1j * np.einsum("mab,bm->a", GAMMA_UP, dpsi) - state.kappa * psi
    lhs_bar = 1j * np.einsum("ma,mab->b", dpsibar, GAMMA_UP) + state.kappa * psibar
    return float(np.maximum(np.linalg.norm(lhs), np.linalg.norm(lhs_bar)))


#: Relative tolerance of the reality and reduced-form checks on the bilinears.
_TOL = 1e-12


def _real_checked(arr: np.ndarray, tol: float, what: str) -> np.ndarray:
    """The real part of arr; an imaginary residue above tol (or NaN) is refused."""
    scale = max(1.0, float(np.abs(arr.real).max()))
    imag = float(np.abs(arr.imag).max())
    if not imag <= tol * scale:
        raise ValueError(f"{what} has imaginary residue {imag:.3e} (tolerance {tol:.1e})")
    return arr.real.copy()


def density_velocity(j, hbar: float = 1.0, c: float = 1.0) -> tuple[float, np.ndarray]:
    """Scalar density and unit-speed velocity: j/hbar = rho u with u.u = c^2."""
    j = np.asarray(j, dtype=float)
    jsq = float(j @ ETA @ j)
    if not jsq > 0:
        raise ValueError(f"current is not timelike (j.j = {jsq:.3e})")
    rho = np.sqrt(jsq) / (hbar * c)
    return rho, j / (hbar * rho)


def _energy_momentum(state, jet) -> np.ndarray:
    """Canonical T^mu_nu = (i hbar c / 2)(psibar g^mu d_nu psi - d_nu psibar g^mu psi)."""
    psi, psibar, dpsi, dpsibar = jet
    T = 0.5j * state.hbar * state.c * (
        np.einsum("a,mab,bn->mn", psibar, GAMMA_UP, dpsi)
        - np.einsum("na,mab,b->mn", dpsibar, GAMMA_UP, psi))
    return _real_checked(T, _TOL, "energy-momentum tensor")


def _denergy_momentum(state, x, jet) -> np.ndarray:
    """Analytic d_sigma T^mu_nu, laid out [sigma, mu, nu]; needs d2psi besides the jet."""
    psi, psibar, dpsi, dpsibar = jet
    d2 = state.d2psi(x)
    d2bar = np.einsum("anm,ab->nmb", d2.conj(), GAMMA_UP[0])
    dT = 0.5j * state.hbar * state.c * (
        np.einsum("sa,mab,bn->smn", dpsibar, GAMMA_UP, dpsi)
        + np.einsum("a,mab,bns->smn", psibar, GAMMA_UP, d2)
        - np.einsum("nsa,mab,b->smn", d2bar, GAMMA_UP, psi)
        - np.einsum("na,mab,bs->smn", dpsibar, GAMMA_UP, dpsi))
    return dT.real


#: [lam, mu, nu, a, b] matrices g^mu g^lam g_nu, and the Hermitian kernel: it minus its
#: mirror g_nu g^lam g^mu = g^0 (g^mu g^lam g_nu)^+ g^0.  Entries are exact (0, +-1, +-i).
_SPIN_PRODUCT = np.einsum("mac,lcd,ndb->lmnab", GAMMA_UP, GAMMA_UP, GAMMA_DN)
_SPIN_KERNEL = _SPIN_PRODUCT - GAMMA_UP[0] @ _SPIN_PRODUCT.conj().swapaxes(-1, -2) @ GAMMA_UP[0]
for _k in (_SPIN_PRODUCT, _SPIN_KERNEL):
    _k.setflags(write=False)


def _currents(state, psi, psibar) -> tuple[np.ndarray, np.ndarray]:
    """j^mu = hbar c psibar g^mu psi and S^{lam mu}_nu = -(i hbar c / 8) psibar K psi.

    K = _SPIN_KERNEL.  Both are refused with an imaginary residue, and S^{lam mu}_nu
    is checked against the real part of the reduced single-product form
    -(i hbar c / 4) psibar g^mu g^lam g_nu psi.
    """
    hc, pre = state.hbar * state.c, -0.125j * state.hbar * state.c
    j = _real_checked(hc * _bilinear(psibar, GAMMA_UP, psi), 1e-13, "vector current")
    S3 = _real_checked(pre * _bilinear(psibar, _SPIN_KERNEL, psi), _TOL, "spin tensor")
    reduced = -0.25j * hc * _bilinear(psibar, _SPIN_PRODUCT, psi)
    mismatch = float(np.abs(reduced.real - S3).max())
    if mismatch > _TOL * max(1.0, float(np.abs(S3).max())):
        raise ValueError(f"reduced spin form disagrees with Hermitian form: {mismatch:.3e}")
    return j, S3


@dataclass
class ConservationReport:
    """Max residuals of the three local balance laws over the sample points."""

    current: float
    energy_momentum: float
    angular_momentum: float
    points: int = 0

    def max_residual(self) -> float:
        return float(np.max([self.current, self.energy_momentum, self.angular_momentum]))


def conservation_report(state) -> ConservationReport:
    """Evaluate the divergence laws analytically on a fixed sample grid.

    A single plane wave has constant bilinears, so its derivative terms vanish
    identically; a superposition exercises the full derivative structure.
    """
    pts = [np.array(q) for q in itertools.product((0.0, 0.7), repeat=4)]
    hc, pre = state.hbar * state.c, -0.125j * state.hbar * state.c
    cur, em, ang = [], [], []  # per-point max residuals; NaN propagates to the max
    for x in pts:
        jet = _jet(state, x)
        _currents(state, *jet[:2])  # the reality and reduced-form checks of j and S3
        cur.append(abs(float(np.trace((hc * _dbilinear(jet, GAMMA_UP)).real))) / state.hbar)
        em.append(np.abs(np.einsum("mmn->n", _denergy_momentum(state, x, jet))).max())
        divS = np.einsum("mlmn->ln", (pre * _dbilinear(jet, _SPIN_KERNEL)).real)
        T_low = ETA @ _energy_momentum(state, jet)
        ang.append(np.abs(ETA @ divS - 0.5 * (T_low - T_low.T)).max())
    r_cur, r_em, r_ang = (float(np.max(r, initial=0.0)) for r in (cur, em, ang))
    return ConservationReport(r_cur, r_em, r_ang, len(pts))


@dataclass
class TakabayasiRecord:
    """Bilinears at one point: density, scalar, pseudoscalar, spin axis and lowered spin form,
    current j = rho u, spin current S3 = S^{lam mu}_nu and S^mu_nu = u_lam S3."""

    rho: float
    Omega: float
    Omega_hat: float
    S_hat: np.ndarray
    S_form: np.ndarray
    j: np.ndarray
    u: np.ndarray
    S3: np.ndarray
    S: np.ndarray


def spin_form_from_dual(u, S_hat) -> np.ndarray:
    """Lowered spin 2-form as the Poincare dual of u ^ S_hat."""
    return 0.5 * np.einsum("mnkl,k,l->mn", EPS_LOW, u, S_hat)


def dual_of_spin_form(u, S_low, c: float = 1.0) -> np.ndarray:
    """Invert the duality for the transverse axis vector S_hat."""
    u_low = ETA @ np.asarray(u, dtype=float)
    return -np.einsum("abmn,a,mn->b", EPS_UP, u_low, S_low) / c ** 2


def takabayasi(state, x) -> TakabayasiRecord:
    """Every bilinear at x from one psi and psibar; no derivative is built."""
    psi = state.psi(x)
    psibar = psi.conj() @ GAMMA_UP[0]
    Omega = float(_real_checked(_bilinear(psibar, np.eye(4), psi), _TOL, "scalar bilinear"))
    Omega_hat = float(_real_checked(_bilinear(psibar, 1j * GAMMA5, psi), _TOL,
                                    "pseudoscalar bilinear"))
    j, S3 = _currents(state, psi, psibar)
    rho, u = density_velocity(j, state.hbar, state.c)
    S = np.einsum("l,lmn->mn", ETA @ u, S3)
    S_low = ETA @ S
    S_low = 0.5 * (S_low - S_low.T)  # numerical antisymmetrization only
    return TakabayasiRecord(rho, Omega, Omega_hat, dual_of_spin_form(u, S_low, state.c), S_low,
                            j, u, S3, S)
