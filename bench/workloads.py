"""The benchmark's workloads: seeded inputs, the cosrel calls they time, and output checks.

A workload is a list of steps run in order; one pass runs every step once.  A
step's ``run`` is the timed call into cosrel's public entry points; its
``check`` inspects the output afterwards, untimed, and raises ``CheckFailed``.
cosrel receives only the inputs generated here from the seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cosrel import cli, deformation
from cosrel.lattice import FormField, Lattice
from tracing import SUITES

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
#: upper-triangle order of the lowered spin components in a worldline config
SPIN_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class CheckFailed(Exception):
    """A call finished, but its output is wrong."""


@dataclass
class Step:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


class VerifySuites:
    """Every verification suite through the CLI, with the library's default options."""

    name = "verify-suites"

    def __init__(self, seed: int, workdir: str):
        self.params = {"suites": list(SUITES), "seed": seed,
                       "options": "defaults: grids 17,33; p 2 and 3; 400 worldline steps; "
                                  "1000 exp samples"}
        self.steps = [self._step(s, seed, os.path.join(workdir, f"suite-{s}.json"))
                      for s in SUITES]

    @staticmethod
    def _step(suite: str, seed: int, path: str) -> Step:
        argv = ["--suite", suite, "--seed", str(seed), "--json", path]

        def check(code):
            if code != 0:
                raise CheckFailed(f"suite {suite}: exit code {code}")
            with open(path) as fh:
                passed = json.load(fh)["passed"]
            os.remove(path)
            if passed is not True:
                raise CheckFailed(f"suite {suite}: report not passed")

        return Step(suite, lambda: cli.main(argv), check)

    @staticmethod
    def details(med: dict) -> dict:
        return {"verify_s": (sum(med.values()), "s"),
                "verify.forms_s": (med["forms"], "s"),
                "verify.algebra_s": (med["algebra"], "s"),
                "verify.weyssenhoff_s": (med["weyssenhoff"], "s")}


def bounded_element(rng, c: float = 1.0) -> dict:
    """A boosted spinning element with timelike momentum density, |pi| = 0.3 rho0 c.

    The recipe of acceptance criterion 7 (the bounded regime), with the spin
    scaled to unit magnitude, sqrt(s_mn s^mn / 2) = 1.  A raw draw can be small
    enough that the zitter motion spans only a few hundred steps of dtau, where
    RK4 drift exceeds the check (seed 10: |s| ~ 0.1, drift 1.5e-6).
    """
    v = rng.uniform(-0.4, 0.4, 3)
    u = np.array([c, *v]) / math.sqrt(1.0 - (v @ v) / c ** 2)
    P = np.eye(4) - np.outer(u, ETA @ u) / c ** 2
    raw = rng.standard_normal((4, 4))
    s = P @ (ETA @ (0.5 * (raw - raw.T))) @ P
    s_low = ETA @ s
    s /= math.sqrt(0.5 * np.einsum("mn,mn->", s_low, ETA @ s_low @ ETA))
    rho0 = rng.uniform(0.5, 2.0)
    pi = -(s @ (P @ rng.standard_normal(4))) / c ** 2
    pi *= 0.3 * rho0 * c / math.sqrt(-float(pi @ ETA @ pi))
    s_low = ETA @ s
    return {"c": c, "u": u, "g": rho0 * (ETA @ u) + ETA @ pi,
            "s": np.array([s_low[m, n] for m, n in SPIN_PAIRS]), "rho0": rho0}


class WorldlineLong:
    """One long worldline simulation through the CLI, with its CSV and JSON writers."""

    name = "worldline-long"
    steps_n, dtau, drift_max = 10000, 0.005, 1e-8

    def __init__(self, seed: int, workdir: str):
        el = bounded_element(np.random.default_rng(seed))
        config = os.path.join(workdir, "worldline.ini")
        self.csv = os.path.join(workdir, "trajectory.csv")

        def floats(a):
            return " ".join(repr(float(x)) for x in a)

        with open(config, "w") as fh:
            fh.write(f"[worldline]\nc = {el['c']!r}\nx = 0 0 0 0\nu = {floats(el['u'])}\n"
                     f"g = {floats(el['g'])}\ns = {floats(el['s'])}\n"
                     f"steps = {self.steps_n}\ndtau = {self.dtau!r}\n")
        self.params = {"steps": self.steps_n, "dtau": self.dtau, "rho0": el["rho0"],
                       "pi_over_rho0_c": 0.3, "u": el["u"].tolist(), "seed": seed}
        argv = ["--simulate", "weyssenhoff-worldline", "--config", config, "--output", self.csv]
        self.steps = [Step("simulate", lambda: cli.main(argv), self._check)]

    def _check(self, code):
        if code != 0:
            raise CheckFailed(f"simulate: exit code {code}")
        with open(self.csv) as fh:
            rows = sum(1 for _ in fh) - 1
        with open(self.csv + ".json") as fh:
            drift = json.load(fh)["drift_summary"]
        os.remove(self.csv)
        os.remove(self.csv + ".json")
        if rows != self.steps_n + 1:
            raise CheckFailed(f"simulate: {rows} CSV rows, expected {self.steps_n + 1}")
        for key in ("u_norm", "frenkel"):
            if not drift[key] <= self.drift_max:
                raise CheckFailed(f"simulate: drift {key} = {drift[key]!r} > {self.drift_max}")

    @staticmethod
    def details(med: dict) -> dict:
        return {"worldline_s": (med["simulate"], "s")}


def smooth_field(rng, x: np.ndarray, value_shape: tuple) -> np.ndarray:
    """One seeded sine mode per value entry over the points x of shape (..., p)."""
    amp = rng.uniform(0.05, 0.4, value_shape)
    k = rng.uniform(0.5, 1.5, value_shape + (x.shape[-1],))
    phase = rng.uniform(0.0, 2.0 * np.pi, value_shape)
    arg = (x @ k.reshape(-1, x.shape[-1]).T).reshape(x.shape[:-1] + value_shape)
    return amp * np.sin(arg + phase)


def lorentz_field(rng, x: np.ndarray) -> np.ndarray:
    """Smooth Lorentz matrices: a boost along one axis after a rotation in another plane."""
    theta = smooth_field(rng, x, ())
    rapidity = smooth_field(rng, x, ())
    i, j, k = rng.permutation([1, 2, 3])
    R = np.broadcast_to(np.eye(4), theta.shape + (4, 4)).copy()
    R[..., i, i] = R[..., j, j] = np.cos(theta)
    R[..., i, j] = -np.sin(theta)
    R[..., j, i] = np.sin(theta)
    B = np.broadcast_to(np.eye(4), theta.shape + (4, 4)).copy()
    B[..., 0, 0] = B[..., k, k] = np.cosh(rapidity)
    B[..., 0, k] = B[..., k, 0] = np.sinh(rapidity)
    return B @ R


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class GridFile33:
    """Write and read back a p = 3 algebra form and a group field on a 33^3 lattice."""

    name = "gridfile-33"
    n = 33

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        lat = Lattice((self.n,) * 3, (1.0 / (self.n - 1),) * 3)
        x = np.stack(lat.coords(), axis=-1)
        w_low = smooth_field(rng, x, (3, 4, 4))
        w = ETA @ (0.5 * (w_low - np.swapaxes(w_low, -1, -2)))
        self.form = deformation.AlgebraForm(FormField(lat, 1, smooth_field(rng, x, (3, 4))),
                                            FormField(lat, 1, w))
        self.group = deformation.GroupField(lat, smooth_field(rng, x, (4,)), lorentz_field(rng, x))
        form_path = os.path.join(workdir, "form.grid")
        group_path = os.path.join(workdir, "group.grid")
        self.bytes = {}
        self.params = {"lattice": [self.n] * 3, "form_degree": 1, "value": "iso(1,3)",
                       "seed": seed}
        self.steps = [
            Step("write_form", lambda: deformation.write_algebra_form(form_path, self.form),
                 lambda _: self._size_repeats(form_path)),
            Step("write_group", lambda: deformation.write_group_field(group_path, self.group),
                 lambda _: self._size_repeats(group_path)),
            Step("read_form", lambda: deformation.read_algebra_form(form_path), self._same_form),
            Step("read_group", lambda: deformation.read_group_field(group_path),
                 self._same_group),
        ]

    def _size_repeats(self, path: str):
        size = os.path.getsize(path)
        if self.bytes.setdefault(path, size) != size:
            raise CheckFailed(f"{path}: {size} bytes, earlier {self.bytes[path]}")

    def _same_form(self, E):
        ref = self.form
        if not (E.lattice == ref.lattice and E.degree == ref.degree
                and _bitwise_equal(E.tra.data, ref.tra.data)
                and _bitwise_equal(E.lor.data, ref.lor.data)):
            raise CheckFailed("read_algebra_form: arrays differ from the written form")

    def _same_group(self, g):
        ref = self.group
        if not (g.lattice == ref.lattice and _bitwise_equal(g.a, ref.a)
                and _bitwise_equal(g.L, ref.L)):
            raise CheckFailed("read_group_field: arrays differ from the written field")

    def details(self, med: dict) -> dict:
        return {"gridfile.write_s": (med["write_form"] + med["write_group"], "s"),
                "gridfile.read_s": (med["read_form"] + med["read_group"], "s"),
                "gridfile.bytes": (sum(self.bytes.values()), "B")}


WORKLOADS = {w.name: w for w in (VerifySuites, WorldlineLong, GridFile33)}
