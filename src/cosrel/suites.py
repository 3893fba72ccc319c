"""Named verification suites: each runs a module's invariant battery and reports residuals.

Every check carries a stable id and a law tag (or "plumbing"), a measured
residual, its tolerance and a pass flag.  Randomized checks draw from a seeded
generator recorded in the report, so reports are deterministic for a fixed seed.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import algebra, deformation, dirac, dynamics, kinematics, weyssenhoff
from .lattice import FormField, Lattice, _forked_results, ext_d, wedge
from .minkowski import ETA, lorentz_adjoint
from .poincare import compose_batch, homogeneous_batch

SUITE_NAMES = ("algebra", "forms", "cosserat", "dirac", "weyssenhoff")

#: Worldline steps and step size of the weyssenhoff suite unless options set them.
DEFAULT_STEPS = 400
DEFAULT_DTAU = 0.01
#: The forms suite's coarse and fine grid sizes unless options set them.
DEFAULT_GRIDS = (17, 33)


@dataclass
class Check:
    check_id: str
    law: str
    value: float
    tolerance: float
    passed: bool
    runtime_ms: float
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        d = {"id": self.check_id, "law": self.law, "value": self.value,
             "tolerance": self.tolerance, "passed": self.passed,
             "runtime_ms": self.runtime_ms}
        if self.extra:
            d["extra"] = self.extra
        return d


@dataclass
class SuiteReport:
    suite: str
    seed: int
    checks: list
    passed: bool

    def as_dict(self) -> dict:
        return {"suite": self.suite, "seed": self.seed, "passed": self.passed,
                "checks": [c.as_dict() for c in sorted(self.checks, key=lambda c: c.check_id)]}


def _worst(*parts) -> float:
    """Largest |entry| over all parts (arrays or numbers); NaN if any entry is NaN."""
    return float(np.max([np.abs(part).max(initial=0.0) for part in parts]))


def _order(coarse, fine) -> float:
    """log2(coarse / fine): the convergence order shown by two errors a refinement apart.

    NaN where the ratio is zero, infinite or NaN, so that no bracket passes it: an
    error that vanished, overflowed or was never measured shows no order.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.float64(coarse) / np.float64(fine)
    return float(np.log2(ratio)) if 0.0 < ratio < math.inf else math.nan


class _Recorder:
    """Collects a suite's checks and times them by lap.

    Each check's runtime_ms is the time since the previous check was recorded
    (the first one's, since the recorder was made), so a suite's runtimes sum to
    its run time and work shared by several checks counts once, in the first.
    Where forked workers compute a check's fields while earlier checks run, its
    runtime_ms is the time spent waiting for them, not their compute time.
    """

    def __init__(self):
        self.checks = []
        self._lap = time.perf_counter()

    def _ms(self) -> float:
        now = time.perf_counter()
        ms, self._lap = (now - self._lap) * 1000.0, now
        return ms

    def add(self, check_id, law, value, tol, extra=None):
        self.checks.append(Check(check_id, law, float(value), float(tol),
                                 bool(value <= tol), self._ms(), extra or {}))

    def bracket(self, check_id, law, lo, value, hi, extra):
        """Pass iff the order estimate `value` falls in [lo, hi]; tolerance is hi."""
        data = {"low": lo, "high": hi, "order_estimate": float(value), **extra}
        self.checks.append(Check(check_id, law, float(value), float(hi), lo <= value <= hi,
                                 self._ms(), data))


# --------------------------------------------------------------------------
# algebra suite


#: The ten basis generators stacked once; their supports do not overlap, so a
#: coefficient contraction reproduces the term-by-term sum bit for bit.
_BASIS_V = np.array([g.v for g in algebra.basis()])
_BASIS_W = np.array([g.w for g in algebra.basis()])


def _algebra_stack(coeffs) -> tuple:
    """(v, w) stacks of the elements with basis coefficients coeffs (..., 10)."""
    return coeffs @ _BASIS_V, np.tensordot(coeffs, _BASIS_W, 1)


def _random_algebra(rng) -> algebra.AlgebraElement:
    return algebra.AlgebraElement(*_algebra_stack(rng.uniform(-1.0, 1.0, size=10)))


def _expected_bracket_table() -> dict:
    """Structure constants assembled independently from the commutation tables."""
    eps = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
           (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1}
    names = algebra.BASIS_NAMES
    table = {}
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if i >= j:
                continue
            coeffs = {}
            if a.startswith("d") and b.startswith("d"):
                pass
            elif a.startswith("d") and b[0] in "JK":
                mu, k = int(a[1]), int(b[1])
                if b[0] == "J":
                    if mu != 0:
                        for l in range(1, 4):
                            e = eps.get((mu, k, l), 0)
                            if e:
                                coeffs[f"d{l}"] = e
                else:
                    if mu == 0:
                        coeffs[f"d{k}"] = -1
                    elif mu == k:
                        coeffs["d0"] = -1
            else:
                i1, j1 = int(a[1]), int(b[1])
                for l in range(1, 4):
                    e = eps.get((i1, j1, l), 0)
                    if not e:
                        continue
                    if a[0] == "J" and b[0] == "J":
                        coeffs[f"J{l}"] = e
                    elif a[0] == "J" and b[0] == "K":
                        coeffs[f"K{l}"] = e
                    elif a[0] == "K" and b[0] == "K":
                        coeffs[f"J{l}"] = -e
            table[(a, b)] = coeffs
    return table


def _suite_algebra(rec: _Recorder, rng, options):
    gens = {n: g for n, g in zip(algebra.BASIS_NAMES, algebra.basis())}
    table = _expected_bracket_table()
    diffs = []
    for (a, b), coeffs in table.items():
        got = algebra.bracket(gens[a], gens[b])
        diffs.append(got.v - sum((c * gens[n].v for n, c in coeffs.items()), np.zeros(4)))
        diffs.append(got.w - sum((c * gens[n].w for n, c in coeffs.items()), np.zeros((4, 4))))
    rec.add("algebra.01-bracket-table", "basis-commutators", _worst(*diffs), 0,
            {"pairs": len(table)})

    # Samples are drawn as one (N, ..., 10) coefficient block, in the order a
    # per-sample loop would draw them, and checked on stacks.
    x, y, z = (_algebra_stack(c) for c in np.moveaxis(rng.uniform(-1, 1, size=(1000, 3, 10)), 1, 0))
    br = algebra.bracket_batch
    total = [sum(parts) for parts in zip(br(br(x, y), z), br(br(y, z), x), br(br(z, x), y))]
    rec.add("algebra.02-jacobi", "jacobi-identity", _worst(*total), 1e-12)

    _, L = algebra.exp_batch(*_algebra_stack(rng.uniform(-1, 1, size=(1000, 10))))
    rec.add("algebra.03-exp-orthogonality", "exp-lands-in-lorentz-group",
            _worst(np.swapaxes(L, -1, -2) @ ETA @ L - ETA), 1e-10)
    rec.add("algebra.04-exp-determinant", "exp-lands-in-lorentz-group",
            _worst(np.linalg.det(L) - 1.0), 1e-9)

    draws = rng.uniform(-1, 1, size=(200, 12))
    v, w = _algebra_stack(draws[:, :10])
    scales = np.stack([draws[:, 10], draws[:, 11], draws[:, 10] + draws[:, 11]])  # s, t, s + t
    a, L = algebra.exp_batch(scales[..., None] * v, scales[..., None, None] * w)
    left_a, left_L = compose_batch((a[0], L[0]), (a[1], L[1]))
    rec.add("algebra.05-subgroup-law", "one-parameter-subgroup",
            _worst(left_a - a[2], left_L - L[2]), 1e-9)

    diffs = []
    for _ in range(100):
        x = _random_algebra(rng)
        rot, boo = algebra.polarize(x)
        rot2, boo2 = algebra.polarize(rot)
        diffs += [rot.w + boo.w - x.w, rot2.w - rot.w, boo2.w]
    # a rotation generator is all rotation and a boost generator all boost, which
    # tells the two outputs apart
    for i in (1, 2, 3):
        J, K = algebra.rotation_generator(i), algebra.boost_generator(i)
        (rot, boo), (rot2, boo2) = algebra.polarize(J), algebra.polarize(K)
        diffs += [rot.w - J.w, boo.w, rot2.w, boo2.w - K.w]
    rec.add("algebra.06-polarize-projection", "rotation-boost-split", _worst(*diffs), 1e-14)

    a, L = algebra.exp_batch(*_algebra_stack(rng.uniform(-1, 1, size=(100, 2, 10))))
    g, h = (a[:, 0], L[:, 0]), (a[:, 1], L[:, 1])
    adj = lorentz_adjoint(L[:, 0])
    worst = _worst(lorentz_adjoint(adj) - L[:, 0], L[:, 0] @ adj - np.eye(4),
                   homogeneous_batch(*compose_batch(g, h))
                   - homogeneous_batch(*g) @ homogeneous_batch(*h))
    rec.add("algebra.07-adjoint-homomorphism", "adjoint-inverse-and-matrix-view",
            worst, 1e-10)


# --------------------------------------------------------------------------
# forms suite


#: Generators of the smooth fields below.
_J1, _J3 = algebra.rotation_matrix_generator(1), algebra.rotation_matrix_generator(3)
_K1 = algebra.boost_matrix_generator(1)


def _smooth_group_field(lat: Lattice, which: int) -> deformation.GroupField:
    """Smooth Poincare field g = (a, exp W) number `which`, sampled by `GroupField.from_function`."""
    def fn(x):
        r = sum(x)
        if which == 0:
            W = [(0.3 * np.sin(x[0] + 0.5 * x[1]), _J3), (0.2 * np.cos(r), _K1)]
            a = [0.2 * np.sin(r), 0.1 * x[0], -0.15 * np.cos(x[1]), 0.05 * r]
        elif which == 1:
            W = [(0.25 * np.cos(x[0]), _J1), (0.15 * np.sin(x[-1] + 0.3), _K1),
                 (0.2 * np.sin(0.7 * r), _J3)]
            a = [0.1 * r, 0.2 * np.cos(x[0]), 0.1 * np.sin(r), 0.0]
        else:
            W = [(0.2 * np.sin(r), _J3), (0.1 * x[0], _K1), (0.15 * np.cos(x[-1]), _J1)]
            a = [0.05 * np.sin(x[0]), 0.1 * r, 0.0, 0.2 * np.cos(r)]
        W = sum(c[..., None, None] * G for c, G in W)
        return np.stack(np.broadcast_arrays(*a), axis=-1), algebra.exp_batch(np.zeros(4), W)[1]

    return deformation.GroupField.from_function(lat, fn)


def _lattice(p: int, n: int) -> Lattice:
    return Lattice((n,) * p, (1.0 / (n - 1),) * p)


def _dislocation_norm(p: int, n: int, which: int) -> float:
    lat = _lattice(p, n)
    E = deformation.nabla_group(_smooth_group_field(lat, which))
    return deformation.dislocation(E).interior_max()


def _bianchi_norm(n: int) -> float:
    lat = _lattice(3, n)
    # same analytic modes on every grid: identical seed, identical draw sequence
    E = _random_algebra_form(lat, np.random.default_rng(123))
    return deformation.incompatibility(deformation.dislocation(E), E).interior_max()


def _random_algebra_form(lat: Lattice, rng) -> deformation.AlgebraForm:
    """Smooth random iso-valued 1-form from a few trig modes."""
    p = lat.p
    coords = lat.coords()
    xi = np.zeros(lat.shape + (p, 4))
    om = np.zeros(lat.shape + (p, 4, 4))
    gens = [algebra.rotation_matrix_generator(i) for i in (1, 2, 3)] \
        + [algebra.boost_matrix_generator(i) for i in (1, 2, 3)]
    for a in range(p):
        for m in range(4):
            amp, ph = rng.uniform(0.1, 0.4), rng.uniform(0, 6)
            ks = rng.uniform(0.5, 1.5, size=p)
            xi[..., a, m] = amp * np.sin(sum(k * c for k, c in zip(ks, coords)) + ph)
        for G in gens:
            amp, ph = rng.uniform(0.05, 0.25), rng.uniform(0, 6)
            ks = rng.uniform(0.5, 1.5, size=p)
            om[..., a, :, :] += (amp * np.sin(sum(k * c for k, c in zip(ks, coords)) + ph))[..., None, None] * G
    return deformation.AlgebraForm(FormField(lat, 1, xi), FormField(lat, 1, om))


def _suite_forms(rec: _Recorder, rng, options):
    n0, n1 = options.get("grids", DEFAULT_GRIDS)
    # the fourteen lattice norms are pure functions of their arguments and use no rng:
    # workers compute them while the checks are recorded, each collected as it is due.
    # forms.05's come first: its fine field is the longest, and started first it
    # leaves the shorter dislocation fields to balance the workers' loads
    norms_of = [functools.partial(_bianchi_norm, n) for n in (n0, n1)]
    norms_of += [functools.partial(_dislocation_norm, p, n, which)
                 for p in (2, 3) for which in range(3) for n in (n0, n1)]
    with _forked_results(norms_of, ahead=len(norms_of)) as results:
        lat = _lattice(2, 15)
        data = rng.standard_normal(lat.shape + (1,))
        f = FormField(lat, 0, data)
        rec.add("forms.01-dd-zero", "nilpotent-exterior-derivative",
                ext_d(ext_d(f)).interior_max(), 1e-12)

        a = FormField(lat, 1, rng.standard_normal(lat.shape + (2,)))
        b = FormField(lat, 1, rng.standard_normal(lat.shape + (2,)))
        asym = wedge(a, b) + wedge(b, a)
        rec.add("forms.02-wedge-antisymmetry", "graded-antisymmetry", asym.max_norm(), 1e-12)

        nc, nf = next(results), next(results)
        rec.bracket("forms.05-bianchi-order", "second-compatibility-identity", 1.7,
                    _order(nc, nf), 2.3, {"field": "incompatibility", "grid": [n0, n1], "norm": nf})
        for p in (2, 3):
            norms = np.array([[next(results) for n in (n0, n1)] for which in range(3)])
            ratio = norms[:, 0] / norms[:, 1]
            lo, hi, worst_fine = float(ratio.min()), float(ratio.max()), _worst(norms[:, 1])
            order = float(np.min([_order(coarse, fine) for coarse, fine in norms]))
            rec.bracket(f"forms.03-dislocation-order-p{p}", "nabla-squared-vanishes", 1.7, order,
                        2.3, {"field": "dislocation", "grid": [n0, n1], "norm": worst_fine,
                              "ratio_range": [lo, hi]})
            rec.add(f"forms.04-dislocation-norm-p{p}", "nabla-squared-vanishes", worst_fine, 1e-3)

    lat2 = _lattice(2, 21)
    coords = lat2.coords()
    xi = np.zeros(lat2.shape + (2, 4))
    xi[..., 0, 1] = coords[1]  # translation-valued rho^2 d rho^1
    E = deformation.AlgebraForm(FormField(lat2, 1, xi),
                                FormField(lat2, 1, np.zeros(lat2.shape + (2, 4, 4))))
    Om = deformation.dislocation(E)
    hand = np.zeros(lat2.shape + (1, 4))
    hand[..., 0, 1] = -1.0
    rec.add("forms.06-hand-dislocation", "torsion-of-a-linear-shear",
            _worst(Om.tra.data - hand), 1e-10,
            {"residual_closedness": deformation.closedness_residual(E)})


# --------------------------------------------------------------------------
# cosserat suite


def _bump_state(lat: Lattice) -> kinematics.KinematicalState:
    """Smooth frame-field state (x, exp W) sampled by `kinematics.prolong`; jets by stencils."""
    def fn(c):
        r = sum(c)
        x = np.zeros(r.shape + (4,))
        x[..., : len(c)] = np.stack(c, axis=-1)
        x[..., 0] += 0.1 * np.sin(r)
        x[..., 3] = 0.2 * np.cos(c[0])
        W = (0.2 * np.sin(c[0]))[..., None, None] * _J3 + (0.1 * np.cos(r))[..., None, None] * _K1
        return x, algebra.exp_batch(np.zeros(4), W)[1]

    return kinematics.prolong(lat, fn)


def _random_phi(lat: Lattice, rng) -> dynamics.DynamicalState:
    return dynamics.DynamicalState(lat, *map(rng.standard_normal, kinematics.jet_slot_shapes(lat)))


def _random_eulerian_variation(lat: Lattice, rng) -> dynamics.EulerianVariation:
    p = lat.p
    def anti(shape):
        raw = rng.standard_normal(shape)
        low = 0.5 * (raw - np.swapaxes(raw, -1, -2))
        return np.einsum("ij,...jk->...ik", ETA, low)  # raise first index
    return dynamics.EulerianVariation(
        rng.standard_normal(lat.shape + (4,)), anti(lat.shape + (4, 4)),
        rng.standard_normal(lat.shape + (p, 4)), anti(lat.shape + (p, 4, 4)))


def _invariant_phi(lat: Lattice, s: kinematics.KinematicalState, rng) -> dynamics.DynamicalState:
    """Fundamental form with F = 0 and the couple chosen by the internal-couple identity."""
    p = lat.p
    sigma = rng.standard_normal(lat.shape + (p, 4))
    mu = rng.standard_normal(lat.shape + (p, 4, 4))
    phi0 = dynamics.DynamicalState(lat, np.zeros(lat.shape + (4,)),
                                   np.zeros(lat.shape + (4, 4)), sigma, mu)
    Mbar0, _ = dynamics.barred_moments(phi0, s)
    e_low_t = np.einsum("...jk,jl->...kl", s.e, ETA)          # (e^T eta) per point
    M = np.einsum("...ij,...jk->...ik", -Mbar0, np.linalg.inv(e_low_t))
    return dynamics.DynamicalState(lat, phi0.F, M, sigma, mu)


def _manufactured_standard(lat: Lattice):
    """Analytic sigma/mubar with hand divergences on the canonical state (p = 2)."""
    coords = lat.coords()
    r1, r2 = coords[0], coords[1]
    p = lat.p
    cvec = np.array([1.0, -0.7, 0.4, 0.2])
    dvec = np.array([0.3, 1.1, -0.5, 0.6])
    sigma = np.zeros(lat.shape + (p, 4))
    sigma[..., 0, :] = np.sin(r1 + 0.5 * r2)[..., None] * cvec
    sigma[..., 1, :] = np.cos(0.4 * r1 - r2)[..., None] * dvec
    div_sigma = (np.cos(r1 + 0.5 * r2)[..., None] * cvec
                 + np.sin(0.4 * r1 - r2)[..., None] * dvec)
    A1 = np.zeros((4, 4)); A1[0, 1], A1[1, 0] = 1.0, -1.0
    A2 = np.zeros((4, 4)); A2[2, 3], A2[3, 2] = 1.0, -1.0
    mubar = np.zeros(lat.shape + (p, 4, 4))
    mubar[..., 0, :, :] = np.sin(r1) [..., None, None] * A1 + (r2 ** 2)[..., None, None] * A2
    mubar[..., 1, :, :] = np.cos(r2)[..., None, None] * A1
    div_mubar = (np.cos(r1)[..., None, None] * A1
                 - np.sin(r2)[..., None, None] * A1)
    return sigma, div_sigma, mubar, div_mubar


def _phi_realizing(lat, s, sigma, F_target, mubar_target, Mbar_target) -> dynamics.DynamicalState:
    """Solve for raw (M, mu) so the barred moments hit the analytic targets."""
    e_low_t = np.einsum("...jk,jl->...kl", s.e, ETA)
    inv = np.linalg.inv(e_low_t)
    x_low = s.x @ ETA
    sig_x = 0.5 * (np.einsum("...ai,...j->...aij", sigma, x_low)
                   - np.einsum("...aj,...i->...aij", sigma, x_low))
    mu = np.einsum("...aij,...jk->...aik", mubar_target - sig_x, inv)
    phi0 = dynamics.DynamicalState(lat, F_target, np.zeros(lat.shape + (4, 4)), sigma, mu)
    Mbar0, _ = dynamics.barred_moments(phi0, s)
    M = np.einsum("...ij,...jk->...ik", Mbar_target - Mbar0, inv)
    return dynamics.DynamicalState(lat, F_target, M, sigma, mu)


def _suite_cosserat(rec: _Recorder, rng, options):
    lat = _lattice(2, 9)
    s = _bump_state(lat)

    phi_inv = _invariant_phi(lat, s, rng)
    rF, rM = dynamics.poincare_invariance_residual(phi_inv, s)
    rec.add("cosserat.01-invariant-construction", "rigid-motion-work-vanishes",
            _worst(rF, rM), 1e-12)

    phi = _random_phi(lat, rng)
    var_e = _random_eulerian_variation(lat, rng)
    var_l = dynamics.lagrangian_of(var_e, s)
    d1 = dynamics.virtual_work_density(phi, s, var_l)
    d2 = dynamics.virtual_work_density(phi, s, var_e)
    rec.add("cosserat.02-picture-crosscheck", "work-density-picture-independence",
            _worst(d1 - d2) / _worst(1.0, d1), 1e-12)

    grids = (9, 17)
    norm, mism = {}, {}  # one build per grid serves cosserat.03 and .04; its time is .03's
    for n in grids:
        latn = _lattice(2, n)
        sn = _bump_state(latn)
        sigma_n, div_sigma_n, mubar_n, div_mubar_n = _manufactured_standard(latn)
        phin = _phi_realizing(latn, sn, sigma_n, div_sigma_n, mubar_n, div_mubar_n)
        r1, r2 = dynamics.cosserat_residual(phin, sn)
        sel = latn.interior()
        norm[n] = _worst(r1[sel], r2[sel])
        coords = latn.coords()
        dxi0 = np.stack([np.sin(coords[0]), np.cos(0.7 * coords[1]),
                         coords[0] * coords[1], 0.5 * np.ones(latn.shape)], axis=-1)
        G = np.zeros((4, 4)); G[0, 1] = G[1, 0] = 1.0
        dI0 = np.cos(coords[0] + coords[1])[..., None, None] * G
        bulk, boundary = dynamics.total_virtual_work(phin, sn, dxi0, dI0)
        direct = dynamics.direct_virtual_work(phin, sn, dxi0, dI0)
        mism[n] = abs(bulk + boundary - direct)
    order = _order(norm[grids[0]], norm[grids[1]])
    rec.bracket("cosserat.03-manufactured-order", "stress-couple-balance", 1.7, order, 2.3,
                {"field": "balance-residual", "grid": list(grids), "norm": norm[grids[1]]})
    order = _order(mism[grids[0]], mism[grids[1]])
    rec.bracket("cosserat.04-integration-by-parts", "bulk-plus-flux-split", 1.5, order, 2.7,
                {"mismatch": mism[grids[1]], "grid": list(grids)})

    _, r2 = dynamics.cosserat_residual(phi, s)
    rec.add("cosserat.05-couple-residual-antisymmetry", "couple-balance-antisymmetry",
            _worst(r2 + np.swapaxes(r2, -1, -2)), 1e-12)


# --------------------------------------------------------------------------
# dirac suite


def _boosted_momentum(rng):
    v = rng.uniform(-0.5, 0.5, size=3)
    return np.array([np.sqrt(1.0 + v @ v), *v])


def _suite_dirac(rec: _Recorder, rng, options):
    rec.add("dirac.01-clifford", "clifford-anticommutation", dirac.clifford_defect(), 1e-14)
    rec.add("dirac.02-hermiticity", "gamma-hermiticity-pattern", dirac.hermiticity_defect(),
            1e-14)

    res, speed, frenkel, modulus = [], [], [], []
    for _ in range(25):
        p = _boosted_momentum(rng)
        st = dirac.make_plane_wave(p, int(rng.integers(2)), 1 if rng.uniform() < 0.5 else -1)
        x = rng.uniform(-1, 1, size=4)
        res.append(dirac.dirac_residual(st, x))
        tk = dirac.takabayasi(st, x)
        speed.append(float(tk.u @ ETA @ tk.u) - st.c ** 2)
        frenkel.append((ETA @ tk.u) @ tk.S)
        modulus.append(tk.Omega ** 2 + tk.Omega_hat ** 2 - tk.rho ** 2)
    rec.add("dirac.03-planewave-residual", "free-wave-equation", _worst(*res), 1e-12)
    rec.add("dirac.04-velocity-normalization", "unit-speed-constraint", _worst(*speed), 1e-10)
    rec.add("dirac.05-frenkel", "velocity-annihilates-spin", _worst(*frenkel), 1e-10)
    rec.add("dirac.06-takabayasi-identity", "scalar-pseudoscalar-modulus", _worst(*modulus), 1e-10)

    p1 = _boosted_momentum(np.random.default_rng(int(rng.integers(2 ** 31))))
    p2 = _boosted_momentum(np.random.default_rng(int(rng.integers(2 ** 31))))
    two = dirac.superpose(dirac.make_plane_wave(p1, 0), dirac.make_plane_wave(p2, 1))
    rep = dirac.conservation_report(two)
    rec.add("dirac.07-two-wave-conservation", "local-balance-laws", rep.max_residual(),
            1e-10, {"points": rep.points})

    diffs = []
    for _ in range(10):
        st = dirac.make_plane_wave(_boosted_momentum(rng), int(rng.integers(2)))
        x = rng.uniform(-1, 1, size=4)
        tk = dirac.takabayasi(st, x)
        diffs.append(dirac.spin_form_from_dual(tk.u, tk.S_hat) - tk.S_form)
    rec.add("dirac.08-duality-roundtrip", "spin-axis-duality", _worst(*diffs), 1e-12)


# --------------------------------------------------------------------------
# weyssenhoff suite


def _random_element(rng, c=1.0) -> weyssenhoff.WeyssenhoffElement:
    v = rng.uniform(-0.4, 0.4, size=3)
    gamma = 1.0 / np.sqrt(1 - (v @ v) / c ** 2)
    u = gamma * np.array([c, *v])
    P = weyssenhoff.frenkel_projector(u, c)
    raw_low = rng.standard_normal((4, 4))
    raw_low = 0.5 * (raw_low - raw_low.T)
    s = P @ (ETA @ raw_low) @ P
    rho0 = rng.uniform(0.5, 2.0)
    a_seed = P @ rng.standard_normal(4)
    pi = weyssenhoff.transverse_momentum(
        weyssenhoff.WeyssenhoffElement(np.zeros(4), u, rho0 * (ETA @ u), s, c=c), a_seed)
    g = rho0 * (ETA @ u) + ETA @ pi
    return weyssenhoff.WeyssenhoffElement(np.zeros(4), u, g, s, c=c)


def _suite_weyssenhoff(rec: _Recorder, rng, options):
    trace, asym, split = [], [], []
    for _ in range(50):
        el = _random_element(rng)
        st = weyssenhoff.stress_tensors(el)
        sp = weyssenhoff.split_momentum(el.g, el.u, el.c)
        trace.append(st.trace - sp.rho0 * el.c ** 2)
        u_low = ETA @ el.u
        asym.append(st.T_asym - 0.5 * (np.outer(sp.pi_low, u_low) - np.outer(u_low, sp.pi_low)))
        a, _, _ = weyssenhoff._acceleration(el.u, el.s, el.g, el.c, 1e-6)
        g2 = weyssenhoff.momentum_from_state(el, a, tol=1e-6)
        sp2 = weyssenhoff.split_momentum(g2, el.u, el.c)
        split += [sp2.rho0 - sp.rho0, sp2.pi_low - sp.pi_low]
    rec.add("weyssenhoff.01-trace-identity", "stress-trace-is-rest-energy", _worst(*trace), 1e-12)
    rec.add("weyssenhoff.02-antisymmetric-part", "transverse-momentum-bivector", _worst(*asym),
            1e-12)
    rec.add("weyssenhoff.03-split-rebuild", "momentum-split-roundtrip", _worst(*split), 1e-12)

    c = 1.0
    u0 = np.array([c, 0, 0, 0])
    el = weyssenhoff.WeyssenhoffElement(np.zeros(4), u0, ETA @ u0 * 1.3,
                                        weyssenhoff.spin_matrix_from_components([0, 0, 0, 0.5, 0, 0]))
    n = options.get("steps", DEFAULT_STEPS)
    dt = options.get("dtau", DEFAULT_DTAU)
    traj = weyssenhoff.integrate_worldline(el, n, dt)
    dev = _worst(traj.u - u0, traj.x - np.outer(traj.tau, u0))
    rec.add("weyssenhoff.04-aligned-momentum-is-inertial", "stationary-spin-solution", dev, 1e-10)

    el = _random_element(np.random.default_rng(11))
    t1 = weyssenhoff.integrate_worldline(el, n, dt)
    t2 = weyssenhoff.integrate_worldline(el, 2 * n, dt / 2)
    d1, d2 = (_worst(t.drift_summary()["u_norm"], t.drift_summary()["frenkel"]) for t in (t1, t2))
    order = _order(d1, d2)
    rec.bracket("weyssenhoff.05-drift-order", "integrator-constraint-drift", 3.7, order, 100.0,
                {"coarse": d1, "fine": d2})


_SUITES = {
    "algebra": _suite_algebra,
    "forms": _suite_forms,
    "cosserat": _suite_cosserat,
    "dirac": _suite_dirac,
    "weyssenhoff": _suite_weyssenhoff,
}


def run_suite(name: str, seed: int = 0, options: dict = None) -> list[SuiteReport]:
    """Run one named suite (or 'all'); returns one report per suite executed.

    A suite that raises ArithmeticError, RuntimeError or ValueError keeps the checks
    it recorded and gets one failed check `<suite>.error` (value NaN, tolerance 0)
    whose extra.error names the exception; the next suite still runs.
    """
    options = dict(options or {})
    names = list(SUITE_NAMES) if name == "all" else [name]
    reports = []
    for n in names:
        if n not in _SUITES:
            raise KeyError(f"unknown suite {n!r}; choose from {SUITE_NAMES + ('all',)}")
        rec = _Recorder()
        rng = np.random.default_rng(seed)
        try:
            _SUITES[n](rec, rng, options)
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            rec.add(f"{n}.error", "plumbing", math.nan, 0.0,
                    {"error": f"{type(exc).__name__}: {exc}"})
        reports.append(SuiteReport(n, seed, rec.checks, all(c.passed for c in rec.checks)))
    return reports
