"""Named verification suites: each runs a module's invariant battery and reports residuals.

Every check carries a stable id and a law tag, a measured residual, its
tolerance and a pass flag.  A suite is a generator of checks: it draws its
random inputs from a seeded generator recorded in the report, so reports are
deterministic for a fixed seed, and yields one entry per check whose function
makes every library call that check needs.  A check that raises therefore fails
alone, and shifts neither the draws nor the ids of the checks after it.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import algebra, deformation, dirac, dynamics, kinematics, weyssenhoff
from .lattice import FormField, Lattice, ext_d, wedge
from .minkowski import ETA, lorentz_adjoint
from .poincare import compose, homogeneous

SUITE_NAMES = ("algebra", "forms", "cosserat", "dirac", "weyssenhoff")

#: Worldline steps and step size of the weyssenhoff suite unless options set them.
DEFAULT_STEPS = 400
DEFAULT_DTAU = 0.01
#: The forms suite's coarse and fine grid sizes unless options set them.
DEFAULT_GRIDS = (17, 33)

#: The errors a check may raise: each fails its own check, and the run goes on.  Any
#: other error, a TypeError say, is a fault of the program and stops the run.
_FAILURES = (ArithmeticError, MemoryError, RuntimeError, ValueError)


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
        return {"id": self.check_id, "law": self.law, "value": self.value,
                "tolerance": self.tolerance, "passed": self.passed,
                "runtime_ms": self.runtime_ms, **({"extra": self.extra} if self.extra else {})}


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


# --------------------------------------------------------------------------
# algebra suite


#: The ten basis generators stacked once; their supports do not overlap, so a
#: coefficient contraction reproduces the term-by-term sum bit for bit.
_BASIS_V, _BASIS_W = algebra.basis()


def _algebra_stack(coeffs) -> tuple:
    """(v, w) stacks of the elements with basis coefficients coeffs (..., 10)."""
    return coeffs @ _BASIS_V, np.tensordot(coeffs, _BASIS_W, 1)


def _expected_bracket_table() -> dict:
    """Structure constants assembled independently from the commutation tables:
    [J_i, J_j] = e_ijk J_k, [J_i, K_j] = e_ijk K_k, [K_i, K_j] = -e_ijk J_k,
    [d_i, J_j] = e_ijk d_k for i > 0, [d_0, K_k] = -d_k and [d_k, K_k] = -d_0."""
    def eps(i, j, k):  # the Levi-Civita symbol on 1, 2, 3
        return (i - j) * (j - k) * (k - i) // 2

    rules = {"JJ": ("J", 1), "JK": ("K", 1), "KK": ("J", -1), "dJ": ("d", 1)}
    names, table = algebra.BASIS_NAMES, {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            pair, m, k = a[0] + b[0], int(a[1]), int(b[1])
            out, sign = rules.get(pair, ("", 0))
            table[(a, b)] = {f"{out}{l}": e for l in (1, 2, 3) if m and (e := sign * eps(m, k, l))}
            if pair == "dK":
                table[(a, b)] = {f"d{k}": -1} if m == 0 else {"d0": -1} if m == k else {}
    return table


def _suite_algebra(rng, options):
    # Samples are drawn as (N, ..., 10) coefficient blocks, in the order a per-sample
    # loop would draw them, and checked on stacks.
    triples, singles, draws, elements, pairs = (rng.uniform(-1, 1, size=shape) for shape in (
        (1000, 3, 10), (1000, 10), (200, 12), (100, 10), (100, 2, 10)))

    def bracket_table():
        gens = dict(zip(algebra.BASIS_NAMES, zip(_BASIS_V, _BASIS_W)))
        table = _expected_bracket_table()
        diffs = []
        for (a, b), coeffs in table.items():
            want = _algebra_stack(np.array([coeffs.get(n, 0) for n in algebra.BASIS_NAMES]))
            diffs += map(np.subtract, algebra.bracket(gens[a], gens[b]), want)
        return _worst(*diffs), {"pairs": len(table)}
    yield "algebra.01-bracket-table", "basis-commutators", -math.inf, 0, bracket_table

    def jacobi():
        br, total = algebra.bracket, []
        for quarter in np.split(triples, 4):  # a quarter of the stacks at a time bounds the memory
            x, y, z = (_algebra_stack(c) for c in np.moveaxis(quarter, 1, 0))
            total += map(sum, zip(br(br(x, y), z), br(br(y, z), x), br(br(z, x), y)))
        return _worst(*total), {}
    yield "algebra.02-jacobi", "jacobi-identity", -math.inf, 1e-12, jacobi

    lorentz = functools.cache(lambda: algebra.exp(*_algebra_stack(singles))[1])
    yield ("algebra.03-exp-orthogonality", "exp-lands-in-lorentz-group", -math.inf, 1e-10,
           lambda: (_worst(np.swapaxes(lorentz(), -1, -2) @ ETA @ lorentz() - ETA), {}))
    yield ("algebra.04-exp-determinant", "exp-lands-in-lorentz-group", -math.inf, 1e-9,
           lambda: (_worst(np.linalg.det(lorentz()) - 1.0), {}))

    def subgroup():
        v, w = _algebra_stack(draws[:, :10])
        scales = np.stack([draws[:, 10], draws[:, 11], draws[:, 10] + draws[:, 11]])  # s, t, s + t
        a, L = algebra.exp(scales[..., None] * v, scales[..., None, None] * w)
        left_a, left_L = compose((a[0], L[0]), (a[1], L[1]))
        return _worst(left_a - a[2], left_L - L[2]), {}
    yield "algebra.05-subgroup-law", "one-parameter-subgroup", -math.inf, 1e-9, subgroup

    def projection():
        w = _algebra_stack(elements)[1]
        rot, boo = algebra.polarize(w)
        rot2, boo2 = algebra.polarize(rot)
        # a rotation generator is all rotation and a boost generator all boost, which
        # tells the two outputs apart
        J, K = _BASIS_W[4:7], _BASIS_W[7:]
        (rot_J, boo_J), (rot_K, boo_K) = algebra.polarize(J), algebra.polarize(K)
        return _worst(rot + boo - w, rot2 - rot, boo2, rot_J - J, boo_J, rot_K, boo_K - K), {}
    yield "algebra.06-polarize-projection", "rotation-boost-split", -math.inf, 1e-14, projection

    def homomorphism():
        a, L = algebra.exp(*_algebra_stack(pairs))
        g, h = (a[:, 0], L[:, 0]), (a[:, 1], L[:, 1])
        adj = lorentz_adjoint(L[:, 0])
        return _worst(lorentz_adjoint(adj) - L[:, 0], L[:, 0] @ adj - np.eye(4),
                      homogeneous(*compose(g, h)) - homogeneous(*g) @ homogeneous(*h)), {}
    yield ("algebra.07-adjoint-homomorphism", "adjoint-inverse-and-matrix-view", -math.inf,
           1e-10, homomorphism)


# --------------------------------------------------------------------------
# forms suite


#: Generators of the smooth fields below: the J1, J3 and K1 rows of the stacked basis.
_J1, _J3, _K1 = _BASIS_W[4], _BASIS_W[6], _BASIS_W[7]


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
        return np.stack(np.broadcast_arrays(*a), axis=-1), algebra.exp(np.zeros(4), W)[1]

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

    def mode(low, high):
        amp, ph = rng.uniform(low, high), rng.uniform(0, 6)
        ks = rng.uniform(0.5, 1.5, size=p)
        return amp * np.sin(sum(k * c for k, c in zip(ks, coords)) + ph)

    for a in range(p):
        for m in range(4):
            xi[..., a, m] = mode(0.1, 0.4)
        # J1..J3, K1..K3, drawn in that order
        om[..., a, :, :] = np.tensordot(np.stack([mode(0.05, 0.25) for _ in range(6)], axis=-1),
                                        _BASIS_W[4:], 1)
    return deformation.AlgebraForm(FormField(lat, 1, xi), FormField(lat, 1, om))


#: in a worker process, the calls of the pool that forked it, inherited at fork
_worker_calls = None


def _inherit(calls):
    global _worker_calls
    _worker_calls = calls


def _worker_call(k: int):
    return _worker_calls[k]()


@contextlib.contextmanager
def _forked_results(calls: list):
    """One reader per call (zero-argument callables): reader k returns call k's result.

    The forms suite computes its lattice fields here.  With more than one available
    CPU and more than one call, up to one worker process per CPU is forked on entry,
    inherits calls and is given all of them at once.  On one CPU, beside other
    threads, in a daemon process or where `fork` is not available (see
    `weyssenhoff._may_fork`), no worker starts and each call runs in this process
    when its reader is first called.  A call's exception is raised by its reader,
    every time it is called; a broken pool fails every call it has not finished.  The workers are joined when the block is left,
    by an exception too.
    """
    workers = min(weyssenhoff._cpus(), len(calls))
    pool = None
    if workers > 1 and weyssenhoff._may_fork():
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_inherit, initargs=(calls,))
    try:
        if pool is None:
            yield [functools.cache(call) for call in calls]
        else:
            yield [pool.submit(_worker_call, k).result for k in range(len(calls))]
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _suite_forms(rng, options):
    n0, n1 = options.get("grids", DEFAULT_GRIDS)
    data, a, b = (rng.standard_normal((15, 15, k)) for k in (1, 2, 2))
    # the fourteen lattice norms are pure functions of their arguments and use no rng: workers
    # compute them while the checks run, each read by the checks that need it, and a field that
    # fails fails only its readers.  forms.05's come first: its fine field is the longest, and
    # started first it leaves the shorter dislocation fields to balance the workers' loads
    calls = [functools.partial(_bianchi_norm, n) for n in (n0, n1)]
    calls += [functools.partial(_dislocation_norm, p, n, which)
              for p in (2, 3) for which in range(3) for n in (n0, n1)]
    with _forked_results(calls) as readers:

        def dislocation_norms(p):  # rows: the three fields; columns: the coarse and fine grid
            return np.array([readers[k]() for k in range(6 * p - 10, 6 * p - 4)]).reshape(3, 2)

        def dislocation_order(p):
            norms = dislocation_norms(p)
            ratio = norms[:, 0] / norms[:, 1]
            return (float(np.min([_order(coarse, fine) for coarse, fine in norms])),
                    {"field": "dislocation", "grid": [n0, n1], "norm": _worst(norms[:, 1]),
                     "ratio_range": [float(ratio.min()), float(ratio.max())]})

        def antisymmetry():
            fa, fb = (FormField(_lattice(2, 15), 1, arr) for arr in (a, b))
            return (wedge(fa, fb) + wedge(fb, fa)).max_norm(), {}

        yield ("forms.01-dd-zero", "nilpotent-exterior-derivative", -math.inf, 1e-12,
               lambda: (ext_d(ext_d(FormField(_lattice(2, 15), 0, data))).interior_max(), {}))
        yield "forms.02-wedge-antisymmetry", "graded-antisymmetry", -math.inf, 1e-12, antisymmetry
        yield ("forms.05-bianchi-order", "second-compatibility-identity", 1.7, 2.3,
               lambda: (_order(readers[0](), readers[1]()),
                        {"field": "incompatibility", "grid": [n0, n1], "norm": readers[1]()}))
        for p in (2, 3):
            yield (f"forms.03-dislocation-order-p{p}", "nabla-squared-vanishes", 1.7, 2.3,
                   functools.partial(dislocation_order, p))
            yield (f"forms.04-dislocation-norm-p{p}", "nabla-squared-vanishes", -math.inf, 1e-3,
                   lambda p=p: (_worst(dislocation_norms(p)[:, 1]), {}))

    def hand_dislocation():
        # not a cube at the origin: a gradient that reads the wrong axis's spacing fails it
        lat = Lattice((21, 13), (0.05, 0.08), (-0.3, 0.2))
        coords = lat.coords()
        xi = np.zeros(lat.shape + (2, 4))
        xi[..., 0, 1] = coords[1]  # translation-valued rho^2 d rho^1
        E = deformation.AlgebraForm(FormField(lat, 1, xi),
                                    FormField(lat, 1, np.zeros(lat.shape + (2, 4, 4))))
        hand = np.zeros(lat.shape + (1, 4))
        hand[..., 0, 1] = -1.0
        return (_worst(deformation.dislocation(E).tra.data - hand),
                {"residual_closedness": deformation.closedness_residual(E)})
    yield ("forms.06-hand-dislocation", "torsion-of-a-linear-shear", -math.inf, 1e-10,
           hand_dislocation)


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
        return x, algebra.exp(np.zeros(4), W)[1]

    return kinematics.prolong(lat, fn)


def _solved_couple(s: kinematics.KinematicalState, F, sigma, mu, Mbar=0.0):
    """The form (F, M, sigma, mu) with M solved so that its barred couple moment is Mbar."""
    zero = dynamics.DynamicalState(s.lattice, F, np.zeros(s.lattice.shape + (4, 4)), sigma, mu)
    inv = np.linalg.inv(np.einsum("...jk,jl->...kl", s.e, ETA))          # (e^T eta)^-1 per point
    M = np.einsum("...ij,...jk->...ik", Mbar - dynamics.barred_moments(zero, s)[0], inv)
    return dynamics.DynamicalState(s.lattice, F, M, sigma, mu)


def _manufactured_standard(lat: Lattice):
    """Analytic sigma/mubar with hand divergences on the canonical state (p = 2)."""
    r1, r2 = lat.coords()
    cvec = np.array([1.0, -0.7, 0.4, 0.2])
    dvec = np.array([0.3, 1.1, -0.5, 0.6])
    sigma = np.zeros(lat.shape + (2, 4))
    sigma[..., 0, :] = np.sin(r1 + 0.5 * r2)[..., None] * cvec
    sigma[..., 1, :] = np.cos(0.4 * r1 - r2)[..., None] * dvec
    div_sigma = np.cos(r1 + 0.5 * r2)[..., None] * cvec + np.sin(0.4 * r1 - r2)[..., None] * dvec
    A1 = np.zeros((4, 4)); A1[0, 1], A1[1, 0] = 1.0, -1.0
    A2 = np.zeros((4, 4)); A2[2, 3], A2[3, 2] = 1.0, -1.0
    mubar = np.zeros(lat.shape + (2, 4, 4))
    mubar[..., 0, :, :] = np.sin(r1) [..., None, None] * A1 + (r2 ** 2)[..., None, None] * A2
    mubar[..., 1, :, :] = np.cos(r2)[..., None, None] * A1
    div_mubar = np.cos(r1)[..., None, None] * A1 - np.sin(r2)[..., None, None] * A1
    return sigma, div_sigma, mubar, div_mubar


def _phi_realizing(s, sigma, F_target, mubar_target, Mbar_target) -> dynamics.DynamicalState:
    """Solve for raw (M, mu) so the barred moments hit the analytic targets."""
    inv = np.linalg.inv(np.einsum("...jk,jl->...kl", s.e, ETA))
    x_low = s.x @ ETA
    sig_x = 0.5 * (np.einsum("...ai,...j->...aij", sigma, x_low)
                   - np.einsum("...aj,...i->...aij", sigma, x_low))
    mu = np.einsum("...aij,...jk->...aik", mubar_target - sig_x, inv)
    return _solved_couple(s, F_target, sigma, mu, Mbar_target)


def _suite_cosserat(rng, options):
    # 9 x 9 lattice, p = 2: the invariant form's sigma and mu, a form's and a variation's slots
    jet = ((4,), (4, 4), (2, 4), (2, 4, 4))
    sigma, mu, *draws = [rng.standard_normal((9, 9) + tail) for tail in jet[2:] + jet + jet]
    state = functools.cache(lambda: _bump_state(_lattice(2, 9)))
    grids = (9, 17)

    def invariant():  # F = 0 and the couple chosen by the internal-couple identity
        phi = _solved_couple(state(), np.zeros((9, 9, 4)), sigma, mu)
        return _worst(*dynamics.poincare_invariance_residual(phi, state())), {}
    yield ("cosserat.01-invariant-construction", "rigid-motion-work-vanishes", -math.inf, 1e-12,
           invariant)

    def pictures():
        s = state()
        phi = dynamics.DynamicalState(s.lattice, *draws[:4])
        dxi, dI, dxij, dIj = draws[4:]  # the rotation slots made antisymmetric, then raised
        var_e = dynamics.EulerianVariation(dxi, ETA @ (0.5 * (dI - np.swapaxes(dI, -1, -2))), dxij,
                                           ETA @ (0.5 * (dIj - np.swapaxes(dIj, -1, -2))))
        d1 = dynamics.virtual_work_density(phi, s, dynamics.lagrangian_of(var_e, s))
        d2 = dynamics.virtual_work_density(phi, s, var_e)
        return _worst(d1 - d2) / _worst(1.0, d1), {}
    yield ("cosserat.02-picture-crosscheck", "work-density-picture-independence", -math.inf,
           1e-12, pictures)

    @functools.cache
    def grid(n):
        """The state on grid n, the analytic sigma and mubar and their divergences."""
        lat = _lattice(2, n)
        return _bump_state(lat), _manufactured_standard(lat)

    def manufactured_order():
        norm = []
        for n in grids:  # the balanced form: its barred moments are the analytic targets
            s, (sigma, div_sigma, mubar, div_mubar) = grid(n)
            phi = _phi_realizing(s, sigma, div_sigma, mubar, div_mubar)
            sel = s.lattice.interior()
            norm.append(_worst(*(r[sel] for r in dynamics.cosserat_residual(phi, s))))
        return _order(*norm), {"field": "balance-residual", "grid": list(grids), "norm": norm[1]}
    yield "cosserat.03-manufactured-order", "stress-couple-balance", 1.7, 2.3, manufactured_order

    def integration_by_parts():
        mism = []
        for n in grids:  # F = 0 and Mbar = 0: the bulk term reads the balance operator
            s, (sigma, div_sigma, mubar, _) = grid(n)
            phi = _phi_realizing(s, sigma, np.zeros_like(div_sigma), mubar, 0.0)
            coords = s.lattice.coords()
            dxi0 = np.stack([np.sin(coords[0]), np.cos(0.7 * coords[1]),
                             coords[0] * coords[1], 0.5 * np.ones(s.lattice.shape)], axis=-1)
            G = np.zeros((4, 4)); G[0, 1] = G[1, 0] = 1.0
            dI0 = np.cos(coords[0] + coords[1])[..., None, None] * G
            bulk, boundary = dynamics.total_virtual_work(phi, s, dxi0, dI0)
            mism.append(abs(bulk + boundary - dynamics.direct_virtual_work(phi, s, dxi0, dI0)))
        return _order(*mism), {"mismatch": mism[1], "grid": list(grids)}
    yield ("cosserat.04-integration-by-parts", "bulk-plus-flux-split", 1.5, 2.7,
           integration_by_parts)


# --------------------------------------------------------------------------
# dirac suite


def _boosted_momentum(rng):
    v = rng.uniform(-0.5, 0.5, size=3)
    return np.array([np.sqrt(1.0 + v @ v), *v])


def _suite_dirac(rng, options):
    # 25 waves (momentum, spin, sign) at x, two momentum seeds, then 10 waves (momentum, spin) at x
    draws = [(_boosted_momentum(rng), int(rng.integers(2)), 1 if rng.uniform() < 0.5 else -1,
              rng.uniform(-1, 1, size=4)) for _ in range(25)]
    seeds = int(rng.integers(2 ** 31)), int(rng.integers(2 ** 31))
    duals = [(_boosted_momentum(rng), int(rng.integers(2)), rng.uniform(-1, 1, size=4))
             for _ in range(10)]
    waves = functools.cache(lambda: [(dirac.make_plane_wave(p, k, sign), x)
                                     for p, k, sign, x in draws])
    records = functools.cache(lambda: [(st, dirac.takabayasi(st, x)) for st, x in waves()])

    def two_waves():
        p1, p2 = (_boosted_momentum(np.random.default_rng(seed)) for seed in seeds)
        rep = dirac.conservation_report(
            dirac.superpose(dirac.make_plane_wave(p1, 0), dirac.make_plane_wave(p2, 1)))
        return rep.max_residual(), {"points": rep.points}

    def duality():
        # the round trip alone holds for a zero form too, so S_form is also read against
        # ETA S, with S = u_lam S3 rebuilt from the spin current (dirac.05 reads tk.S)
        diffs = []
        for p, k, x in duals:
            tk = dirac.takabayasi(dirac.make_plane_wave(p, k), x)
            S = np.einsum("l,lmn->mn", ETA @ tk.u, tk.S3)
            diffs += [dirac.spin_form_from_dual(tk.u, tk.S_hat) - tk.S_form,
                      tk.S_form - ETA @ S]
        return _worst(*diffs), {}

    yield ("dirac.01-clifford", "clifford-anticommutation", -math.inf, 1e-14,
           lambda: (dirac.clifford_defect(), {}))
    yield ("dirac.02-hermiticity", "gamma-hermiticity-pattern", -math.inf, 1e-14,
           lambda: (dirac.hermiticity_defect(), {}))
    yield ("dirac.03-planewave-residual", "free-wave-equation", -math.inf, 1e-12,
           lambda: (_worst(*[dirac.dirac_residual(st, x) for st, x in waves()]), {}))
    yield ("dirac.04-velocity-normalization", "unit-speed-constraint", -math.inf, 1e-10,
           lambda: (_worst(*[float(tk.u @ ETA @ tk.u) - 1.0 for _, tk in records()]), {}))
    yield ("dirac.05-frenkel", "velocity-annihilates-spin", -math.inf, 1e-10,
           lambda: (_worst(*[(ETA @ tk.u) @ tk.S for _, tk in records()]), {}))
    yield ("dirac.06-takabayasi-identity", "scalar-pseudoscalar-modulus", -math.inf, 1e-10,
           lambda: (_worst(*[tk.Omega ** 2 + tk.Omega_hat ** 2 - tk.rho ** 2
                             for _, tk in records()]), {}))
    yield "dirac.07-two-wave-conservation", "local-balance-laws", -math.inf, 1e-10, two_waves
    yield "dirac.08-duality-roundtrip", "spin-axis-duality", -math.inf, 1e-12, duality


# --------------------------------------------------------------------------
# weyssenhoff suite


def _element_draws(rng) -> tuple:
    """The draws of one random element: boost velocity, raw spin, rho0 and a raw acceleration."""
    return (rng.uniform(-0.4, 0.4, size=3), rng.standard_normal((4, 4)), rng.uniform(0.5, 2.0),
            rng.standard_normal(4))


def _element(draws) -> weyssenhoff.WeyssenhoffElement:
    """The random element built from `_element_draws`."""
    v, raw_low, rho0, raw_a = draws
    u = 1.0 / np.sqrt(1 - v @ v) * np.array([1.0, *v])
    P = weyssenhoff.frenkel_projector(u)
    s = P @ (ETA @ (0.5 * (raw_low - raw_low.T))) @ P
    pi = weyssenhoff.transverse_momentum(
        weyssenhoff.WeyssenhoffElement(np.zeros(4), u, rho0 * (ETA @ u), s), P @ raw_a)
    g = rho0 * (ETA @ u) + ETA @ pi
    return weyssenhoff.WeyssenhoffElement(np.zeros(4), u, g, s)


def _suite_weyssenhoff(rng, options):
    draws = [_element_draws(rng) for _ in range(50)]
    n, dt = options.get("steps", DEFAULT_STEPS), options.get("dtau", DEFAULT_DTAU)
    elements = functools.cache(lambda: [_element(d) for d in draws])
    stresses = functools.cache(lambda: [weyssenhoff.stress_tensors(el) for el in elements()])
    splits = functools.cache(lambda: [weyssenhoff.split_momentum(el.g, el.u)
                                      for el in elements()])

    def antisymmetric_part():
        # the bivector antisymmetrises pi's u part away, so u.pi is read on its own
        asym = []
        for el, st, sp in zip(elements(), stresses(), splits()):
            u_low = ETA @ el.u
            asym += [st.T_asym - 0.5 * (np.outer(sp.pi_low, u_low) - np.outer(u_low, sp.pi_low)),
                     el.u @ sp.pi_low]
        return _worst(*asym), {}

    def split_rebuild():
        diffs = []
        for el, sp in zip(elements(), splits()):
            a, _, _ = weyssenhoff._acceleration(el.u, el.s, el.g)
            g2 = weyssenhoff.momentum_from_state(el, a)
            sp2 = weyssenhoff.split_momentum(g2, el.u)
            diffs += [sp2.rho0 - sp.rho0, sp2.pi_low - sp.pi_low]
        return _worst(*diffs), {}

    def inertial():
        u0 = np.array([1.0, 0, 0, 0])
        s = weyssenhoff.spin_matrix_from_components([0, 0, 0, 0.5, 0, 0])
        el = weyssenhoff.WeyssenhoffElement(np.zeros(4), u0, ETA @ u0 * 1.3, s)
        traj = weyssenhoff.integrate_worldline(el, n, dt)
        return _worst(traj.u - u0, traj.x - np.outer(traj.tau, u0)), {}

    def drift_order():
        el = _element(_element_draws(np.random.default_rng(11)))
        runs = (weyssenhoff.integrate_worldline(el, k * n, dt / k) for k in (1, 2))
        d1, d2 = (_worst(t.drift_summary()["u_norm"], t.drift_summary()["frenkel"]) for t in runs)
        return _order(d1, d2), {"coarse": d1, "fine": d2}

    yield ("weyssenhoff.01-trace-identity", "stress-trace-is-rest-energy", -math.inf, 1e-12,
           lambda: (_worst(*[st.trace - sp.rho0 for st, sp in zip(stresses(), splits())]), {}))
    yield ("weyssenhoff.02-antisymmetric-part", "transverse-momentum-bivector", -math.inf,
           1e-12, antisymmetric_part)
    yield ("weyssenhoff.03-split-rebuild", "momentum-split-roundtrip", -math.inf, 1e-12,
           split_rebuild)
    yield ("weyssenhoff.04-aligned-momentum-is-inertial", "stationary-spin-solution", -math.inf,
           1e-10, inertial)
    yield "weyssenhoff.05-drift-order", "integrator-constraint-drift", 3.7, 100.0, drift_order


_SUITES = {
    "algebra": _suite_algebra,
    "forms": _suite_forms,
    "cosserat": _suite_cosserat,
    "dirac": _suite_dirac,
    "weyssenhoff": _suite_weyssenhoff,
}


def run_suite(name: str, seed: int = 0, options: dict = None) -> list[SuiteReport]:
    """Run one named suite (or 'all'); returns one report per suite executed.

    A check passes iff low <= value <= tolerance; a bracket check (low > -inf) puts
    low, high and its order estimate in extra.  A check that raises one of _FAILURES
    keeps its id, law and tolerance, with value NaN and extra.error naming the error.
    Each runtime_ms is a lap of one clock, since the suite's previous check ended.
    """
    options = dict(options or {})
    names = list(SUITE_NAMES) if name == "all" else [name]
    reports = []
    for n in names:
        if n not in _SUITES:
            raise KeyError(f"unknown suite {n!r}; choose from {SUITE_NAMES + ('all',)}")
        checks, lap = [], time.perf_counter()
        for check_id, law, low, tol, measure in _SUITES[n](np.random.default_rng(seed), options):
            try:
                value, extra = measure()
                if low > -math.inf:
                    extra = {"low": low, "high": tol, "order_estimate": float(value), **extra}
            except _FAILURES as exc:
                value, extra = math.nan, {"error": f"{type(exc).__name__}: {exc}"}
            now = time.perf_counter()
            checks.append(Check(check_id, law, float(value), float(tol),
                                bool(low <= value <= tol), (now - lap) * 1000.0, extra))
            lap = now
        reports.append(SuiteReport(n, seed, checks, all(c.passed for c in checks)))
    return reports
