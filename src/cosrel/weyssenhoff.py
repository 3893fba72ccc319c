"""Weyssenhoff spinning-fluid elements: momentum split, stress tensors, worldline motion.

Index conventions: u and acceleration are contravariant, the momentum density g
is stored covariant (g_mu), the spin density s is the mixed matrix s^mu_nu whose
index-lowered form is antisymmetric and annihilates u (Frenkel constraint).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .minkowski import ETA

#: row-major upper-triangle order of the six independent lowered spin components
SPIN_COMPONENTS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def spin_matrix_from_components(comps) -> np.ndarray:
    """Mixed spin matrix s^mu_nu from the six lowered components s_{mu nu}."""
    s_low = np.zeros((4, 4))
    for (m, n), v in zip(SPIN_COMPONENTS, comps):
        s_low[m, n] = v
        s_low[n, m] = -v
    return ETA @ s_low


def spin_components(s) -> list:
    """The six independent lowered components of a mixed spin matrix."""
    s_low = ETA @ np.asarray(s, dtype=float)
    return [float(s_low[m, n]) for m, n in SPIN_COMPONENTS]


@dataclass
class WeyssenhoffElement:
    """Single fluid element: event x, velocity u, momentum density g_mu, spin s^mu_nu."""

    x: np.ndarray
    u: np.ndarray
    g: np.ndarray
    s: np.ndarray
    tau: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).reshape(4)
        self.u = np.asarray(self.u, dtype=float).reshape(4)
        self.g = np.asarray(self.g, dtype=float).reshape(4)
        self.s = np.asarray(self.s, dtype=float).reshape(4, 4)

    def invariant_defects(self) -> dict:
        s_low = ETA @ self.s
        return {
            "u_norm": abs(float(self.u @ ETA @ self.u) - self.c ** 2),
            "frenkel": float(np.abs(self.s @ self.u).max()),
            "spin_antisymmetry": float(np.abs(s_low + s_low.T).max()),
        }

    def validate(self, tol: float = 1e-9):
        state = np.concatenate([self.x, self.u, self.g, self.s.ravel(), [self.tau, self.c]])
        if not np.all(np.isfinite(state)):
            raise ValueError("element state has non-finite entries")
        defects = self.invariant_defects()
        bad = {k: v for k, v in defects.items() if not v <= tol}
        if bad:
            raise ValueError(f"element violates invariants: {bad}")


@dataclass
class SplitMomentum:
    rho0: float
    pi_low: np.ndarray       # transverse momentum, covariant components
    mu0: float               # NaN when g.g < 0 (flagged, not thrown)
    mu0_defined: bool
    g_square: float


def split_momentum(g, u, c: float = 1.0) -> SplitMomentum:
    """g = rho0 u + pi with u-transverse pi; both rest-mass densities."""
    g = np.asarray(g, dtype=float)
    u = np.asarray(u, dtype=float)
    rho0 = float(g @ u) / c ** 2
    pi_low = g - rho0 * (ETA @ u)
    gsq = float(g @ ETA @ g)
    defined = gsq >= 0.0
    mu0 = math.sqrt(gsq) / c if defined else math.nan
    return SplitMomentum(rho0, pi_low, mu0, defined, gsq)


@dataclass
class StressTensors:
    T: np.ndarray            # T[nu][mu] = g_mu u^nu  (row = contravariant index)
    S: np.ndarray            # S[nu][lam][mu] = s^nu_mu u^lam
    T_sym: np.ndarray        # lowered symmetric part
    T_asym: np.ndarray       # lowered antisymmetric part
    trace: float


def stress_tensors(element: WeyssenhoffElement) -> StressTensors:
    """Momentum flux T = g (x) u and spin flux S = s (x) u with their invariant split."""
    u, g, s = element.u, element.g, element.s
    T = np.outer(u, g)
    S = np.einsum("nm,l->nlm", s, u)
    u_low = ETA @ u
    T_low = np.outer(g, u_low)
    return StressTensors(T, S, 0.5 * (T_low + T_low.T), 0.5 * (T_low - T_low.T),
                         float(g @ u))


def _central_jacobian(fn, x, step: float) -> np.ndarray:
    """Central differences of fn at x, derivative index last; h = step * max(1, |x_sig|)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for sig in range(4):
        h = step * max(1.0, abs(x[sig]))
        xp, xm = x.copy(), x.copy()
        xp[sig] += h
        xm[sig] -= h
        cols.append((np.asarray(fn(xp), dtype=float) - np.asarray(fn(xm), dtype=float)) / (2 * h))
    return np.stack(cols, axis=-1)


class FlowField:
    """Analytic flow closures u(x), g(x), s(x) with optional analytic Jacobians.

    Jacobians are laid out with the derivative index last: du[mu][sig] = d_sig u^mu.
    Missing Jacobians fall back to central differences with `fd_step`.
    """

    def __init__(self, u, g, s=None, du=None, dg=None, ds=None, fd_step: float = 1e-6,
                 c: float = 1.0):
        self.u, self.g, self.s = u, g, s
        self._du, self._dg, self._ds = du, dg, ds
        self.fd_step = fd_step
        self.c = c

    def u_at(self, x):
        return np.asarray(self.u(x), dtype=float)

    def g_at(self, x):
        return np.asarray(self.g(x), dtype=float)

    def s_at(self, x):
        return np.asarray(self.s(x), dtype=float)

    def du_at(self, x):
        return np.asarray(self._du(x), dtype=float) if self._du else _central_jacobian(self.u, x, self.fd_step)

    def dg_at(self, x):
        return np.asarray(self._dg(x), dtype=float) if self._dg else _central_jacobian(self.g, x, self.fd_step)

    def ds_at(self, x):
        return np.asarray(self._ds(x), dtype=float) if self._ds else _central_jacobian(self.s, x, self.fd_step)

    def element_at(self, x, tol: float = None) -> "WeyssenhoffElement":
        """Sample the flow as a fluid element; validates the pointwise invariants."""
        s = self.s_at(x) if self.s else np.zeros((4, 4))
        el = WeyssenhoffElement(np.asarray(x, dtype=float), self.u_at(x), self.g_at(x),
                                s, c=self.c)
        if tol is not None:
            el.validate(tol)
        return el


@dataclass
class VorticityReport:
    kinematical: np.ndarray   # 2-form coefficients, leading-minus convention
    chi_k: float
    dynamical: np.ndarray
    chi_d: float


def vorticity_compressibility(flow: FlowField, x) -> VorticityReport:
    """Exterior derivatives and divergences of the covelocity and momentum 1-forms."""
    du = flow.du_at(x)                    # d_sig u^mu at [mu, sig]
    dul = (ETA @ du).T                    # [sig, nu] = d_sig u_nu
    om_k = -0.5 * (dul - dul.T)
    chi_k = float(np.trace(du))
    dg = flow.dg_at(x)                    # d_sig g_mu at [mu, sig]
    dgl = dg.T                            # g is already covariant
    om_d = -0.5 * (dgl - dgl.T)
    g_up_div = float(np.trace(ETA @ dg))  # d_mu g^mu
    return VorticityReport(om_k, chi_k, om_d, g_up_div)


def density_derivative(f, flow: FlowField, x, grad_f=None, fd_step: float = 1e-6) -> tuple[float, float]:
    """Both evaluations of d_tau f = div(f u) = df/dtau + chi_k f.

    The first value uses an independent finite-difference divergence of the
    product closure, the second the comoving-derivative form.
    """
    x = np.asarray(x, dtype=float)

    def product(y):
        return f(y) * np.asarray(flow.u(y), dtype=float)

    div_form = sum(np.diagonal(_central_jacobian(product, x, fd_step)))  # trace, summed in axis order
    df = _central_jacobian(f, x, fd_step) if grad_f is None else np.asarray(grad_f(x), dtype=float)
    u = flow.u_at(x)
    chi_k = float(np.trace(flow.du_at(x)))
    comoving_form = float(u @ df) + chi_k * f(x)
    return float(div_form), comoving_form


def transverse_momentum(element: WeyssenhoffElement, a, tol: float = 1e-9) -> np.ndarray:
    """pi^mu = -(1/c^2) s^mu_nu a^nu for an acceleration transverse to u."""
    a = np.asarray(a, dtype=float)
    ua = float(element.u @ ETA @ a)
    scale = max(1.0, float(np.abs(a).max()) * element.c)
    if abs(ua) > tol * scale:
        raise ValueError(f"acceleration not transverse to u: u.a = {ua:.3e}")
    return -(element.s @ a) / element.c ** 2


def momentum_from_state(element: WeyssenhoffElement, a, tol: float = 1e-9) -> np.ndarray:
    """Covariant momentum density rho0 u_mu + pi_mu rebuilt from spin and acceleration."""
    rho0 = split_momentum(element.g, element.u, element.c).rho0
    pi = transverse_momentum(element, a, tol)
    return rho0 * (ETA @ element.u) + ETA @ pi


def orbital_divergence(flow: FlowField, x) -> np.ndarray:
    """d_lam of the orbital moment x^mu T^{nu lam} - x^nu T^{mu lam}, analytic."""
    x = np.asarray(x, dtype=float)
    u, g = flow.u_at(x), flow.g_at(x)
    du, dg = flow.du_at(x), flow.dg_at(x)
    g_up = ETA @ g
    dg_up = ETA @ dg                             # [mu, sig] = d_sig g^mu
    T_up = np.outer(g_up, u)                     # T^{mu lam}
    divT = du @ g_up + np.einsum("ml,l->m", dg_up, u)  # d_lam T^{mu lam}
    return (T_up.T - T_up) + np.outer(x, divT) - np.outer(divT, x)


def frenkel_projector(u, c: float = 1.0) -> np.ndarray:
    """eta-orthogonal projector onto the subspace transverse to u."""
    return np.eye(4) - np.outer(u, ETA @ u) / c ** 2


class ClosureError(RuntimeError):
    """Raised when the transverse momentum is outside the range of the spin matrix."""

    def __init__(self, residual: float, message: str = None):
        super().__init__(message or f"spin closure unsolvable: residual {residual:.3e}")
        self.residual = residual


def _acceleration(u, s, g, c, solver_tol, check: bool = True):
    """Least-squares a with s a = -c^2 pi, taken in the column space of s.

    Solutions differ by the spin kernel (which contains u); the column-space
    representative is the unique one the flow propagates consistently, it is
    metric-orthogonal to u whenever the Frenkel constraint holds, and it
    reduces to the plain minimum-norm solution in the rest frame.  For a
    vanishing transverse momentum it is exactly zero.  Runge-Kutta stages sit
    off the constraint manifold by the local truncation error, so the
    solvability gate applies to accepted states only.
    """
    rho0 = float(g @ u) / c ** 2
    pi_low = g - rho0 * (ETA @ u)
    pi = ETA @ pi_low
    rhs = -c ** 2 * pi
    U, sv, _ = np.linalg.svd(s)
    cols = sv > 1e-12 * max(sv[0], 1e-300)
    if not np.any(cols):
        a = np.zeros(4)
    else:
        R = U[:, cols]
        alpha, *_ = np.linalg.lstsq(s @ R, rhs, rcond=None)
        a = R @ alpha
    if check:
        residual = float(np.abs(s @ a - rhs).max())
        if residual > solver_tol * max(1.0, float(np.abs(rhs).max())):
            raise ClosureError(residual)
    return a, pi, pi_low


def _sdot(pi, pi_low, u):
    u_low = ETA @ u
    return np.outer(pi, u_low) - np.outer(u, pi_low)


@dataclass
class Trajectory:
    tau: np.ndarray
    x: np.ndarray
    u: np.ndarray
    s: np.ndarray
    g: np.ndarray            # constant covariant momentum density
    c: float
    diagnostics: dict = field(default_factory=dict)

    def drift_summary(self) -> dict:
        return {k: float(np.abs(v).max()) for k, v in self.diagnostics.items()}

    def write_csv(self, path):
        names = [f"s{m}{n}" for m, n in SPIN_COMPONENTS]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tau"] + [f"x{m}" for m in range(4)] + [f"u{m}" for m in range(4)]
                            + names + ["drift_u2", "drift_frenkel", "spin_invariant"])
            for i in range(len(self.tau)):
                row = [float(self.tau[i]), *map(float, self.x[i]), *map(float, self.u[i]),
                       *spin_components(self.s[i]),
                       float(self.diagnostics["u_norm"][i]),
                       float(self.diagnostics["frenkel"][i]),
                       float(self.diagnostics["spin_invariant"][i])]
                writer.writerow([repr(v) for v in row])

    def write_json(self, path):
        records = []
        for i in range(len(self.tau)):
            records.append({
                "tau": float(self.tau[i]),
                "x": self.x[i].tolist(),
                "u": self.u[i].tolist(),
                "s": spin_components(self.s[i]),
                "drift_u2": float(self.diagnostics["u_norm"][i]),
                "drift_frenkel": float(self.diagnostics["frenkel"][i]),
                "spin_invariant": float(self.diagnostics["spin_invariant"][i]),
            })
        payload = {"g": self.g.tolist(), "c": self.c, "records": records,
                   "drift_summary": self.drift_summary()}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def integrate_worldline(initial: WeyssenhoffElement, steps: int, dtau: float,
                        project: bool = False, solver_tol: float = 1e-3,
                        drift_max: float = None, invariant_tol: float = 1e-9) -> Trajectory:
    """Classical RK4 worldline of a single spinning element with g held constant.

    The energy-momentum density is conserved exactly (particle reduction with
    vanishing kinematic compressibility); u and s evolve through the spin
    closure: acceleration solves -(1/c^2) s a = pi with minimum norm, the spin
    rate is the transverse-momentum bivector.  Constraint drift is recorded and
    not corrected unless `project` is set.
    """
    initial.validate(invariant_tol)
    c = initial.c
    g = initial.g.copy()
    n = int(steps)
    tau = initial.tau + dtau * np.arange(n + 1)
    xs = np.zeros((n + 1, 4))
    us = np.zeros((n + 1, 4))
    ss = np.zeros((n + 1, 4, 4))
    xs[0], us[0], ss[0] = initial.x, initial.u, initial.s

    def rhs(y, check=False):
        x, u, s = y
        a, pi, pi_low = _acceleration(u, s, g, c, solver_tol, check=check)
        return u.copy(), a, _sdot(pi, pi_low, u)

    diag = {k: np.zeros(n + 1) for k in ("u_norm", "frenkel", "spin_invariant")}

    def record(i, u, s):
        s_low = ETA @ s
        diag["u_norm"][i] = float(u @ ETA @ u) - c ** 2
        diag["frenkel"][i] = float(np.abs(s @ u).max())
        diag["spin_invariant"][i] = float(np.einsum("mn,mn->", s_low, ETA @ s_low @ ETA))

    record(0, us[0], ss[0])
    ref_spin = diag["spin_invariant"][0]
    for i in range(n):
        y = (xs[i], us[i], ss[i])
        k1 = rhs(y, check=True)
        k2 = rhs(tuple(y[j] + 0.5 * dtau * k1[j] for j in range(3)))
        k3 = rhs(tuple(y[j] + 0.5 * dtau * k2[j] for j in range(3)))
        k4 = rhs(tuple(y[j] + dtau * k3[j] for j in range(3)))
        xs[i + 1], us[i + 1], ss[i + 1] = (
            y[j] + dtau / 6.0 * (k1[j] + 2 * k2[j] + 2 * k3[j] + k4[j]) for j in range(3))
        if project:
            u = us[i + 1]
            us[i + 1] = u * (c / math.sqrt(float(u @ ETA @ u)))
            P = frenkel_projector(us[i + 1], c)
            ss[i + 1] = P @ ss[i + 1] @ P
        record(i + 1, us[i + 1], ss[i + 1])
        if drift_max is not None:
            worst = max(abs(diag["u_norm"][i + 1]), diag["frenkel"][i + 1],
                        abs(diag["spin_invariant"][i + 1] - ref_spin))
            if worst > drift_max:
                raise RuntimeError(f"constraint drift {worst:.3e} exceeded {drift_max:.3e} "
                                   f"at step {i + 1}")
    diag["spin_invariant"] = diag["spin_invariant"] - ref_spin
    return Trajectory(tau, xs, us, ss, g, c, diag)
