"""Weyssenhoff spinning-fluid elements: momentum split, stress tensors, worldline motion.

Index conventions: u and acceleration are contravariant, the momentum density g
is stored covariant (g_mu), the spin density s is the mixed matrix s^mu_nu whose
index-lowered form is antisymmetric and annihilates u (Frenkel constraint).
Natural units, as in the Dirac module: the speed of light is 1, so u.u = 1 and
the momentum split is g = rho0 u + pi.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import shutil
import sys
import tempfile
import threading
from dataclasses import dataclass, field

import numpy as np

from .minkowski import ETA, lowered_antisymmetry_defect

#: row-major upper-triangle order of the six independent lowered spin components
SPIN_COMPONENTS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def spin_matrix_from_components(comps) -> np.ndarray:
    """Mixed spin matrix s^mu_nu from the six lowered components s_{mu nu}."""
    if len(comps) != len(SPIN_COMPONENTS):
        raise ValueError(f"spin needs 6 lowered components, got {len(comps)}")
    s_low = np.zeros((4, 4))
    for (m, n), v in zip(SPIN_COMPONENTS, comps):
        s_low[m, n] = v
        s_low[n, m] = -v
    return ETA @ s_low


@dataclass
class WeyssenhoffElement:
    """Single fluid element: event x, velocity u, momentum density g_mu, spin s^mu_nu."""

    x: np.ndarray
    u: np.ndarray
    g: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        """Each slot as a float array; a slot of another shape is refused, not reshaped."""
        for name, shape in (("x", (4,)), ("u", (4,)), ("g", (4,)), ("s", (4, 4))):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ValueError(f"element {name} must have shape {shape}, got {value.shape}")
            setattr(self, name, value)

    def invariant_defects(self) -> dict:
        return {
            "u_norm": abs(float(self.u @ ETA @ self.u) - 1.0),
            "frenkel": float(np.abs(self.s @ self.u).max()),
            "spin_antisymmetry": lowered_antisymmetry_defect(self.s),
        }

    def validate(self):
        state = np.concatenate([self.x, self.u, self.g, self.s.ravel()])
        if not np.all(np.isfinite(state)):
            raise ValueError("element state has non-finite entries")
        defects = self.invariant_defects()
        bad = {k: v for k, v in defects.items() if not v <= 1e-9}
        if bad:
            raise ValueError(f"element violates invariants: {bad}")
        # the closure's rank cut is relative: a Frenkel defect leaves a third pivot of up
        # to 2.1 defect / |s| of the first (see _RANK_TOL), |s| = sqrt(s_mn s^mn / 2)
        s_low = ETA @ self.s
        spin = math.sqrt(max(0.0, 0.5 * float(np.einsum("mn,mn->", s_low, ETA @ s_low @ ETA))))
        bound = _RANK_TOL * spin / 2.1
        if not defects["frenkel"] <= bound:
            raise ValueError(f"Frenkel defect {defects['frenkel']:.3e} above {bound:.3e}, the "
                             f"most a spin of |s| = {spin:.3e} can carry and still be solved "
                             "as rank 2")


@dataclass
class SplitMomentum:
    rho0: float
    pi_low: np.ndarray       # transverse momentum, covariant components
    mu0_defined: bool        # g.g >= 0: the rest-mass density mu0 = sqrt(g.g) exists
    g_square: float


def split_momentum(g, u) -> SplitMomentum:
    """g = rho0 u + pi with u-transverse pi; both rest-mass densities."""
    g = np.asarray(g, dtype=float)
    u = np.asarray(u, dtype=float)
    rho0 = float(g @ u)
    pi_low = g - rho0 * (ETA @ u)
    gsq = float(g @ ETA @ g)
    return SplitMomentum(rho0, pi_low, gsq >= 0.0, gsq)


@dataclass
class StressTensors:
    T: np.ndarray            # T[nu][mu] = g_mu u^nu  (row = contravariant index)
    S: np.ndarray            # S[nu][lam][mu] = s^nu_mu u^lam
    T_asym: np.ndarray       # lowered antisymmetric part
    trace: float


def stress_tensors(element: WeyssenhoffElement) -> StressTensors:
    """Momentum flux T = g (x) u and spin flux S = s (x) u with their invariant split."""
    u, g, s = element.u, element.g, element.s
    T = np.outer(u, g)
    S = np.einsum("nm,l->nlm", s, u)
    u_low = ETA @ u
    T_low = np.outer(g, u_low)
    return StressTensors(T, S, 0.5 * (T_low - T_low.T), float(g @ u))


#: The largest |u.a| / max(1, max|a|) that `transverse_momentum` accepts as transverse.
_TRANSVERSE_TOL = 1e-9


def transverse_momentum(element: WeyssenhoffElement, a) -> np.ndarray:
    """pi^mu = -s^mu_nu a^nu for an acceleration transverse to u (within _TRANSVERSE_TOL)."""
    a = np.asarray(a, dtype=float)
    ua = float(element.u @ ETA @ a)
    scale = max(1.0, float(np.abs(a).max()))
    if abs(ua) > _TRANSVERSE_TOL * scale:
        raise ValueError(f"acceleration not transverse to u: u.a = {ua:.3e}")
    return -(element.s @ a)


def momentum_from_state(element: WeyssenhoffElement, a) -> np.ndarray:
    """Covariant momentum density rho0 u_mu + pi_mu rebuilt from spin and acceleration."""
    rho0 = split_momentum(element.g, element.u).rho0
    pi = transverse_momentum(element, a)
    return rho0 * (ETA @ element.u) + ETA @ pi


def frenkel_projector(u) -> np.ndarray:
    """eta-orthogonal projector onto the subspace transverse to u."""
    return np.eye(4) - np.outer(u, ETA @ u)


class ClosureError(RuntimeError):
    """Raised when the transverse momentum is outside the range of the spin matrix."""

    def __init__(self, residual: float):
        super().__init__(residual)  # args hold the residual, so a pickled copy rebuilds
        self.residual = residual

    def __str__(self) -> str:
        return f"spin closure unsolvable: residual {self.residual:.3e}"


#: Relative size below which a pivot or singular value of the spin matrix counts as zero.
#: A Frenkel defect max|s u| leaves s a third pivot of at most 2.1 max|s u| / |s| of the
#: first (measured), so validate() refuses a defect above _RANK_TOL |s| / 2.1 as well as
#: one above 1e-9: every accepted spin is solved as rank 2, not blown up by inverting
#: its defect.  `_closure`'s r22 test keeps the roundoff cut _RANK_TOL ** 2, as a boost,
#: not a spin defect, lowers r22 / r11.
_RANK_TOL = 1e-6
#: The closure gate of a worldline run, relative to max(1, max|pi|) at its initial
#: state (see `_closure_gate`).
_SOLVER_TOL = 1e-3


def _svd_lstsq(s, rhs) -> list:
    """Least-squares a in the column space of s, for any numerical rank, through its SVD.

    A non-finite s raises LinAlgError before the SVD, which need not return for
    an infinite entry.
    """
    s = np.reshape(s, (4, 4))
    if not np.all(np.isfinite(s)):
        raise np.linalg.LinAlgError("spin matrix has non-finite entries")
    U, sv, _ = np.linalg.svd(s)
    cols = sv > _RANK_TOL * max(sv[0], 1e-300)
    if not np.any(cols):
        return [0.0, 0.0, 0.0, 0.0]
    R = U[:, cols]
    alpha, *_ = np.linalg.lstsq(s @ R, rhs, rcond=None)
    return (R @ alpha).tolist()


#: the other three column indices of s, ascending, for each first pivot
_OTHER_COLUMNS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def _closure(s, rhs) -> list:
    """Least-squares a with s a = rhs, taken in the column space of s (16 floats, row-major).

    The lowered spin is antisymmetric, so s has even rank, and it is 2 on the
    constraint manifold and at the Runge-Kutta stages near it.  Two pivoted
    columns then span the column space: r1, the largest column, and r2, the
    column with the largest part orthogonal to r1.  a = [r1 r2] alpha, where
    alpha minimises |B alpha - rhs| for B = s [r1 r2], through the
    Gram-Schmidt QR of B (the normal equations would square its conditioning
    for a boosted u).  s = 0 gives a = 0.  A state that is not numerically
    rank 2 (third pivot above _RANK_TOL relative), or whose column space meets
    its kernel (r22 at most _RANK_TOL ** 2 of r11), goes through the SVD.

    Written out in scalar arithmetic on named locals: the worldline calls it
    four times per RK4 step.  Ties pick r1 as `max` does (the first column)
    and r2 as a sort does (the later column).  A NaN column norm can pick
    another pivot than a sort would, but it arises only when s holds a NaN or
    its largest column norm is inf, and then every path ends in the SVD, which
    refuses the state with LinAlgError.  That includes a NaN outside a zero
    column 0: r1 keeps norm 0, and a = 0 is returned only when all four column
    norms are 0.
    """
    (s00, s01, s02, s03, s10, s11, s12, s13,
     s20, s21, s22, s23, s30, s31, s32, s33) = s
    cols = ((s00, s10, s20, s30), (s01, s11, s21, s31),
            (s02, s12, s22, s32), (s03, s13, s23, s33))
    n0 = s00 * s00 + s10 * s10 + s20 * s20 + s30 * s30
    n1 = s01 * s01 + s11 * s11 + s21 * s21 + s31 * s31
    n2 = s02 * s02 + s12 * s12 + s22 * s22 + s32 * s32
    n3 = s03 * s03 + s13 * s13 + s23 * s23 + s33 * s33
    # r1: the largest column, the first on ties
    j1, top = 0, n0
    if n1 > top:
        j1, top = 1, n1
    if n2 > top:
        j1, top = 2, n2
    if n3 > top:
        j1, top = 3, n3
    if top == 0.0:
        if n1 == 0.0 and n2 == 0.0 and n3 == 0.0:
            return [0.0, 0.0, 0.0, 0.0]
        return _svd_lstsq(s, rhs)
    cut = _RANK_TOL ** 2 * top
    r = math.sqrt(top)
    p0, p1, p2, p3 = cols[j1]
    q0 = p0 / r
    q1 = p1 / r
    q2 = p2 / r
    q3 = p3 / r
    jx, jy, jz = _OTHER_COLUMNS[j1]
    # x, y, z: what r1 leaves of the other three columns
    x0, x1, x2, x3 = cols[jx]
    d = q0 * x0 + q1 * x1 + q2 * x2 + q3 * x3
    x0 = x0 - d * q0
    x1 = x1 - d * q1
    x2 = x2 - d * q2
    x3 = x3 - d * q3
    nx = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
    y0, y1, y2, y3 = cols[jy]
    d = q0 * y0 + q1 * y1 + q2 * y2 + q3 * y3
    y0 = y0 - d * q0
    y1 = y1 - d * q1
    y2 = y2 - d * q2
    y3 = y3 - d * q3
    ny = y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3
    z0, z1, z2, z3 = cols[jz]
    d = q0 * z0 + q1 * z1 + q2 * z2 + q3 * z3
    z0 = z0 - d * q0
    z1 = z1 - d * q1
    z2 = z2 - d * q2
    z3 = z3 - d * q3
    nz = z0 * z0 + z1 * z1 + z2 * z2 + z3 * z3
    # r2: the column that leaves the most, the later on ties; moved into z
    # (the other two stay in x and y)
    if not (nz >= nx and nz >= ny):
        if ny >= nx:
            jz, nz = jy, ny
            y0, y1, y2, y3, z0, z1, z2, z3 = z0, z1, z2, z3, y0, y1, y2, y3
        else:
            jz, nz = jx, nx
            x0, x1, x2, x3, z0, z1, z2, z3 = z0, z1, z2, z3, x0, x1, x2, x3
    if not nz > cut:
        return _svd_lstsq(s, rhs)
    r = math.sqrt(nz)
    q0 = z0 / r
    q1 = z1 / r
    q2 = z2 / r
    q3 = z3 / r
    # third pivot: what r2 leaves of x and y
    d = q0 * x0 + q1 * x1 + q2 * x2 + q3 * x3
    x0 = x0 - d * q0
    x1 = x1 - d * q1
    x2 = x2 - d * q2
    x3 = x3 - d * q3
    if x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3 > cut:
        return _svd_lstsq(s, rhs)
    d = q0 * y0 + q1 * y1 + q2 * y2 + q3 * y3
    y0 = y0 - d * q0
    y1 = y1 - d * q1
    y2 = y2 - d * q2
    y3 = y3 - d * q3
    if y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3 > cut:
        return _svd_lstsq(s, rhs)
    t0, t1, t2, t3 = cols[jz]
    # B = [y1 y2] with y1 = s r1 and y2 = s r2
    b10 = s00 * p0 + s01 * p1 + s02 * p2 + s03 * p3
    b11 = s10 * p0 + s11 * p1 + s12 * p2 + s13 * p3
    b12 = s20 * p0 + s21 * p1 + s22 * p2 + s23 * p3
    b13 = s30 * p0 + s31 * p1 + s32 * p2 + s33 * p3
    b20 = s00 * t0 + s01 * t1 + s02 * t2 + s03 * t3
    b21 = s10 * t0 + s11 * t1 + s12 * t2 + s13 * t3
    b22 = s20 * t0 + s21 * t1 + s22 * t2 + s23 * t3
    b23 = s30 * t0 + s31 * t1 + s32 * t2 + s33 * t3
    r11 = math.sqrt(b10 * b10 + b11 * b11 + b12 * b12 + b13 * b13)
    if not r11 > 0.0:
        return _svd_lstsq(s, rhs)
    e0 = b10 / r11
    e1 = b11 / r11
    e2 = b12 / r11
    e3 = b13 / r11
    r12 = e0 * b20 + e1 * b21 + e2 * b22 + e3 * b23
    w0 = b20 - r12 * e0
    w1 = b21 - r12 * e1
    w2 = b22 - r12 * e2
    w3 = b23 - r12 * e3
    r22 = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2 + w3 * w3)
    if not r22 > _RANK_TOL ** 2 * r11:
        return _svd_lstsq(s, rhs)
    h0, h1, h2, h3 = rhs
    alpha2 = (w0 * h0 + w1 * h1 + w2 * h2 + w3 * h3) / (r22 * r22)
    alpha1 = (e0 * h0 + e1 * h1 + e2 * h2 + e3 * h3 - r12 * alpha2) / r11
    return [alpha1 * p0 + alpha2 * t0, alpha1 * p1 + alpha2 * t1,
            alpha1 * p2 + alpha2 * t2, alpha1 * p3 + alpha2 * t3]


def _closure_gate(pi_low) -> float:
    """The largest closure residual a state may have: _SOLVER_TOL * max(1, max|pi|)."""
    return _SOLVER_TOL * max(1.0, float(np.abs(pi_low).max()))


def _rate(y, g, gate):
    """Right-hand side of the worldline equations on the flat state y (24 floats).

    y holds x^mu, u^mu and s^mu_nu (row-major); the rate is (u, a, s-dot), where
    a solves the spin closure s a = -pi in the column space of s (see
    `_closure`) and s-dot = pi (x) u_low - u (x) pi_low.  Solutions differ by the
    spin kernel (which contains u); the column-space representative is the
    unique one the flow propagates consistently, it is metric-orthogonal to u
    whenever the Frenkel constraint holds, and it reduces to the plain
    minimum-norm solution in the rest frame.  For a vanishing transverse
    momentum it is exactly zero.  Returns (rate, residual): with a float `gate`
    (see `_closure_gate`), the residual max|s a + pi| is measured and raises
    ClosureError above the gate; with None it is not measured and is None.
    Runge-Kutta stages sit off the constraint manifold by the local truncation
    error, so the integrator gates recorded states only.  Written out in scalar
    arithmetic like `_closure`.
    """
    u0, u1, u2, u3 = y[4:8]
    s = y[8:24]
    g0, g1, g2, g3 = g
    rho0 = g0 * u0 + g1 * u1 + g2 * u2 + g3 * u3
    # pi_low = g - rho0 u_low, pi = its raised form, u_low = (u0, v1, v2, v3)
    l0 = g0 - rho0 * u0
    l1 = g1 + rho0 * u1
    l2 = g2 + rho0 * u2
    l3 = g3 + rho0 * u3
    p0 = l0
    p1 = -l1
    p2 = -l2
    p3 = -l3
    v1 = -u1
    v2 = -u2
    v3 = -u3
    # h = -pi as a product with -1.0, which keeps the sign of a NaN that a minus would flip
    h0 = -1.0 * p0
    h1 = -1.0 * p1
    h2 = -1.0 * p2
    h3 = -1.0 * p3
    a0, a1, a2, a3 = _closure(s, [h0, h1, h2, h3])
    residual = None
    if gate is not None:
        (s00, s01, s02, s03, s10, s11, s12, s13,
         s20, s21, s22, s23, s30, s31, s32, s33) = s
        residual = max(abs(s00 * a0 + s01 * a1 + s02 * a2 + s03 * a3 - h0),
                       abs(s10 * a0 + s11 * a1 + s12 * a2 + s13 * a3 - h1),
                       abs(s20 * a0 + s21 * a1 + s22 * a2 + s23 * a3 - h2),
                       abs(s30 * a0 + s31 * a1 + s32 * a2 + s33 * a3 - h3))
        if not residual <= gate:
            raise ClosureError(residual)
    return [u0, u1, u2, u3, a0, a1, a2, a3,
            p0 * u0 - u0 * l0, p0 * v1 - u0 * l1, p0 * v2 - u0 * l2, p0 * v3 - u0 * l3,
            p1 * u0 - u1 * l0, p1 * v1 - u1 * l1, p1 * v2 - u1 * l2, p1 * v3 - u1 * l3,
            p2 * u0 - u2 * l0, p2 * v1 - u2 * l1, p2 * v2 - u2 * l2, p2 * v3 - u2 * l3,
            p3 * u0 - u3 * l0, p3 * v1 - u3 * l1, p3 * v2 - u3 * l2, p3 * v3 - u3 * l3], residual


def _acceleration(u, s, g):
    """(a, pi, pi_low) of one state through `_rate`, ungated."""
    u = np.asarray(u, dtype=float)
    pi_low = split_momentum(g, u).pi_low
    y = [0.0] * 4 + u.tolist() + np.asarray(s, dtype=float).ravel().tolist()
    rate, _ = _rate(y, np.asarray(g, dtype=float).tolist(), None)
    return np.array(rate[4:8]), ETA @ pi_low, pi_low


def _diagnostics(u, s) -> dict:
    """Unit-speed defect, Frenkel residual and spin invariant s_mn s^mn of stacked states."""
    s_low = ETA @ s
    return {"u_norm": np.einsum("im,mn,in->i", u, ETA, u) - 1.0,
            "frenkel": np.abs(s @ u[:, :, None]).max(axis=(1, 2)),
            "spin_invariant": np.einsum("imn,imn->i", s_low, ETA @ s_low @ ETA)}


#: trajectory rows per block: the worldline loop's diagnostics, `Trajectory.drift_summary`
#: and the CSV writers each hold the temporaries of one block at a time, so a run holds
#: its returned arrays plus one block
_WRITE_ROWS = 256
_CSV_COLUMNS = (["tau"] + [f"x{m}" for m in range(4)] + [f"u{m}" for m in range(4)]
                + [f"s{m}{n}" for m, n in SPIN_COMPONENTS]
                + ["drift_u2", "drift_frenkel", "spin_invariant"])
_CSV_HEAD = ",".join(_CSV_COLUMNS) + "\r\n"


def _blocks(n: int):
    """Row slices of at most _WRITE_ROWS rows that cover rows 0..n-1 in order."""
    return (slice(start, start + _WRITE_ROWS) for start in range(0, n, _WRITE_ROWS))


def _csv_table(tau, x, u, s, u_norm, frenkel, spin_invariant) -> np.ndarray:
    """The CSV values of one block of records, a C-contiguous row per record: tau, x, u,
    the six lowered spin components and the three drift columns."""
    m, n = np.array(SPIN_COMPONENTS).T
    return np.column_stack([tau, x, u, (ETA @ s)[:, m, n], u_norm, frenkel, spin_invariant])


def _csv_rows(table) -> str:
    """The CSV rows of a value table, each float through repr once: csv.writer's bytes."""
    return "".join([",".join(map(repr, row)) + "\r\n" for row in table.tolist()])


@dataclass
class Trajectory:
    tau: np.ndarray
    x: np.ndarray
    u: np.ndarray
    s: np.ndarray
    g: np.ndarray            # constant covariant momentum density
    diagnostics: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)   # steps, dtau, solver_tol

    def drift_summary(self) -> dict:
        """max|v| of each diagnostic, NaN if it holds a NaN, taken block by block."""
        return {k: float(np.max([np.abs(v[rows]).max() for rows in _blocks(len(v))]))
                for k, v in self.diagnostics.items()}

    def write_csv(self, path):
        """The per-step table: tau, x, u, the six lowered spin components, the drift columns.

        Formatted and written in blocks of _WRITE_ROWS rows (see `_csv_table`)."""
        d = self.diagnostics
        with open(path, "w", newline="") as fh:
            fh.write(_CSV_HEAD)
            for rows in _blocks(len(self.tau)):
                fh.write(_csv_rows(_csv_table(self.tau[rows], self.x[rows], self.u[rows],
                                              self.s[rows], d["u_norm"][rows],
                                              d["frenkel"][rows], d["spin_invariant"][rows])))

    def regime(self) -> dict:
        """The momentum regime: whether mu0 is defined (g.g >= 0), and g.g."""
        sp = split_momentum(self.g, self.u[0])
        return {"mu0_defined": sp.mu0_defined, "g_square": sp.g_square}

    def write_json(self, path):
        """The run summary: g, drift_summary, run and regime."""
        payload = {"g": self.g.tolist(), "drift_summary": self.drift_summary(),
                   "run": self.params, "regime": self.regime()}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def tau_grid(steps, dtau) -> np.ndarray:
    """The steps + 1 proper times k dtau from 0; a bad step count or step size is refused.

    `steps` must be an integer >= 0 and `dtau` finite, the grid must fit in memory,
    and every grid time must be finite (a finite dtau can still overflow, e.g. 1e308
    over 3 steps).
    """
    if not isinstance(steps, numbers.Integral) or steps < 0:
        raise ValueError(f"steps must be an integer >= 0, got {steps!r}")
    if not math.isfinite(dtau):
        raise ValueError(f"dtau must be finite, got {dtau!r}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            tau = dtau * np.arange(int(steps) + 1)
    except MemoryError:
        raise ValueError(f"tau grid of {steps} steps does not fit in memory") from None
    if not np.all(np.isfinite(tau)):
        raise ValueError(f"tau grid overflows: {steps} steps of dtau {dtau!r}")
    return tau


def integrate_worldline(initial: WeyssenhoffElement, steps: int, dtau: float,
                        on_block=None) -> Trajectory:
    """Classical RK4 worldline of a single spinning element with g held constant.

    The energy-momentum density is conserved exactly (particle reduction with
    vanishing kinematic compressibility); u and s evolve through the spin
    closure: a is the least-squares solution of -s a = pi in the column
    space of s (minimum-norm only in the rest frame), the spin rate is the
    transverse-momentum bivector.  Constraint drift is recorded, never corrected:
    reporting it is the run's purpose.  Proper time starts at 0.  The state is
    stepped as one flat list of floats (see `_rate`).
    Every recorded state, the last one too, must pass the closure gate
    _SOLVER_TOL * max(1, max|pi|), with pi taken at the initial state, or
    ClosureError is raised: a runaway, whose |pi| grows with it, cannot widen its
    own gate.  Bad `steps` or `dtau` raise ValueError (see tau_grid).

    The steps run in blocks of _WRITE_ROWS recorded states (the last block may be
    shorter), and each block's diagnostics are computed as soon as its last state is
    recorded, the spin invariant as its offset from the initial state's.  `on_block`,
    if given, is then called with the block's CSV columns: tau, x, u, s and the
    u_norm, frenkel and spin_invariant diagnostics, row slices of the returned
    arrays (see `_csv_table`).  That last state is gated by the step after it, so a
    block handed on may still hold the state that fails the gate.
    """
    initial.validate()
    tau = tau_grid(steps, dtau)
    g = initial.g.copy()
    gl = g.tolist()
    gate = _closure_gate(split_momentum(g, initial.u).pi_low)
    n = int(steps)
    states = np.empty((n + 1, 24))
    x, us, ss = states[:, :4], states[:, 4:8], states[:, 8:].reshape(n + 1, 4, 4)
    closure = np.empty(n + 1)
    # NaN until its block fills it: a row the loop missed makes drift_summary NaN
    diag = {key: np.full(n + 1, np.nan) for key in ("u_norm", "frenkel", "spin_invariant")}
    y = np.concatenate([initial.x, initial.u, initial.s.ravel()]).tolist()
    states[0] = y
    half, sixth = 0.5 * dtau, dtau / 6.0
    for rows in _blocks(n + 1):
        # the steps that record this block's states, from the state before its first
        for i in range(max(rows.start - 1, 0), min(rows.stop, n + 1) - 1):
            k1, closure[i] = _rate(y, gl, gate)
            k2, _ = _rate([v + half * k for v, k in zip(y, k1)], gl, None)
            k3, _ = _rate([v + half * k for v, k in zip(y, k2)], gl, None)
            k4, _ = _rate([v + dtau * k for v, k in zip(y, k3)], gl, None)
            y = [v + sixth * (p + 2 * q + 2 * r + t) for v, p, q, r, t in zip(y, k1, k2, k3, k4)]
            states[i + 1] = y
        for key, value in _diagnostics(us[rows], ss[rows]).items():
            diag[key][rows] = value
        if rows.start == 0:
            spin0 = diag["spin_invariant"][0]
        diag["spin_invariant"][rows] -= spin0
        if on_block is not None:
            on_block(tau[rows], x[rows], us[rows], ss[rows], diag["u_norm"][rows],
                     diag["frenkel"][rows], diag["spin_invariant"][rows])
    _, closure[n] = _rate(y, gl, gate)
    diag["closure_residual"] = closure
    params = {"steps": n, "dtau": float(dtau), "solver_tol": _SOLVER_TOL}
    return Trajectory(tau, x, us, ss, g, diag, params)


# --------------------------------------------------------------------------
# worker processes: the forms suite's pool and the worldline's CSV writer


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity masks on this platform
        return os.cpu_count() or 1


def _may_fork() -> bool:
    """Whether this process may fork a worker: it may run on more than one CPU, runs no
    other thread (fork is unsafe beside one), has `fork` and is not a daemon (which may
    not start children; a daemon is a multiprocessing child, so multiprocessing is loaded)."""
    mp = sys.modules.get("multiprocessing")
    return (_cpus() > 1 and threading.active_count() == 1 and hasattr(os, "fork")
            and not (mp is not None and mp.current_process().daemon))


def _csv_process(data_fd: int, stage):
    """The writer process's work (see `simulate`): reads each block's CSV value table
    from data_fd into one buffer, formats it into the staging file and returns at end
    of file."""
    with open(data_fd, "rb") as pipe:
        stage.write(_CSV_HEAD.encode())
        table = np.empty((_WRITE_ROWS, len(_CSV_COLUMNS)))
        while rows := pipe.readinto(table) // table[0].nbytes:
            stage.write(_csv_rows(table[:rows]).encode())
    stage.flush()


def simulate(initial: WeyssenhoffElement, steps: int, dtau: float, path) -> Trajectory:
    """`integrate_worldline`'s run, with its CSV table (see `Trajectory.write_csv`) written
    to path once the run has succeeded; a run that raises leaves path as it was.

    Where a worker may be forked (see `_may_fork`), a forked process formats the table
    while the steps run: this process turns each block's columns into their value table
    (see `_csv_table`) and writes its raw float64 bytes down one pipe, and the writer
    process formats them, through the formatter of `Trajectory.write_csv`, into an
    unnamed temporary file that this process created before the fork; it holds one block
    of values and its text.  Once the run ends, by an exception too, the pipe is closed
    and the writer reaped; a writer that exited with a nonzero status raises
    ChildProcessError, and otherwise the file is copied to path, so a full device is this
    process's OSError.  Where no worker may be forked, or the fork fails, the table is
    written here after the last step.
    """
    pid = None
    if _may_fork():
        stage = tempfile.TemporaryFile()
        data_r, data_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(data_w)
            stage.close()
        if pid == 0:
            code = 1
            try:
                os.close(data_w)
                _csv_process(data_r, stage)
                code = 0
            finally:
                os._exit(code)
        os.close(data_r)
    if pid is None:
        traj = integrate_worldline(initial, steps, dtau, on_block=None)
        traj.write_csv(path)
        return traj

    def on_block(*columns):
        # a writer that has stopped no longer reads the blocks, and they are dropped
        view = memoryview(_csv_table(*columns)).cast("B")
        try:
            while view:
                view = view[os.write(data_w, view):]
        except BrokenPipeError:
            pass

    with stage:
        try:
            traj = integrate_worldline(initial, steps, dtau, on_block=on_block)
        finally:
            os.close(data_w)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code != 0:
            raise ChildProcessError(f"the CSV writer exited with status {code} before writing "
                                    f"{path}")
        stage.seek(0)
        with open(path, "wb") as out:
            shutil.copyfileobj(stage, out)
    return traj
