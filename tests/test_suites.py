import dataclasses
import math
import multiprocessing
import os
import time

import numpy as np
import pytest
import scipy.linalg

from cosrel import algebra, deformation, dirac, kinematics, suites, weyssenhoff
from cosrel.suites import (SUITE_NAMES, _algebra_stack, _bump_state, _lattice, _smooth_group_field,
                           run_suite)
from test_acceptance import _displacement_closure
from test_cli import _strip_runtime


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("bogus")


def test_single_suite_report_shape():
    reports = run_suite("dirac", seed=5)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.suite == "dirac" and rep.seed == 5
    assert rep.passed
    d = rep.as_dict()
    ids = [c["id"] for c in d["checks"]]
    assert ids == sorted(ids)
    for c in d["checks"]:
        assert c["law"]
        assert "value" in c and "tolerance" in c and "runtime_ms" in c


def test_all_runs_every_suite():
    reports = run_suite("all", seed=0, options={"grids": (9, 17), "steps": 150, "dtau": 0.02})
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    assert all(r.passed for r in reports)
    for r in reports:
        for c in r.checks:
            assert c.runtime_ms > 0, c.check_id


def _nan_on_second_call(fn, nan_of):
    calls = []

    def wrapped(*args):
        calls.append(args)
        out = fn(*args)
        return nan_of(out) if len(calls) == 2 else out

    return wrapped


@pytest.mark.parametrize("suite,module,name,nan_of,check_id", [
    ("dirac", dirac, "dirac_residual", lambda r: np.nan, "dirac.03-planewave-residual"),
    ("weyssenhoff", weyssenhoff, "stress_tensors",
     lambda st: dataclasses.replace(st, trace=np.nan), "weyssenhoff.01-trace-identity"),
    ("forms", suites, "_dislocation_norm", lambda r: np.nan, "forms.03-dislocation-order-p2"),
], ids=["dirac.03", "weyssenhoff.01", "forms.03"])
def test_nan_sample_fails_its_check(monkeypatch, suite, module, name, nan_of, check_id):
    # one NaN sample among finite ones must surface as the check's value, not be maxed away
    monkeypatch.setattr(module, name, _nan_on_second_call(getattr(module, name), nan_of))
    rep = run_suite(suite, options={"grids": (9, 17)})[0]
    check = {c.check_id: c for c in rep.checks}[check_id]
    assert np.isnan(check.value) and not check.passed and not rep.passed


def _scaled_closure(s, rhs, closure=weyssenhoff._closure):
    return [1.01 * a for a in closure(s, rhs)]


_WEYSSENHOFF_IDS = ["weyssenhoff.01-trace-identity", "weyssenhoff.02-antisymmetric-part",
                    "weyssenhoff.03-split-rebuild", "weyssenhoff.04-aligned-momentum-is-inertial",
                    "weyssenhoff.05-drift-order"]


def test_a_raising_suite_is_a_failed_check_and_the_run_goes_on(monkeypatch):
    # a 1% error in the spin closure makes weyssenhoff.05's gated worldline raise; .03's
    # ungated solves read the error as a rebuilt momentum 1% off; .01, .02 and .04 do not
    # solve the closure, and every other suite runs
    monkeypatch.setattr(weyssenhoff, "_closure", _scaled_closure)
    reports = run_suite("all", seed=0, options={"grids": (9, 17), "steps": 150, "dtau": 0.02})
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    assert [r.passed for r in reports] == [True, True, True, True, False]
    checks = reports[-1].checks
    assert [c.check_id for c in checks] == _WEYSSENHOFF_IDS
    assert [c.passed for c in checks] == [True, True, False, True, False]
    assert checks[2].value == pytest.approx(4.770e-2, rel=1e-3) and checks[2].extra == {}
    check = checks[4]
    assert (check.law, check.tolerance) == ("integrator-constraint-drift", 100.0)
    assert math.isnan(check.value)
    assert check.extra == {"error": "ClosureError: spin closure unsolvable: residual 2.276e-02"}
    assert checks[3].value < 1e-13      # the aligned element has pi = 0: no closure term to scale


def test_a_raising_suite_keeps_the_checks_it_recorded(monkeypatch):
    def runaway(*args, **kwargs):
        raise weyssenhoff.ClosureError(0.5)

    monkeypatch.setattr(weyssenhoff, "integrate_worldline", runaway)
    (rep,) = run_suite("weyssenhoff")
    assert [(c.check_id, c.passed) for c in rep.checks] == list(zip(
        _WEYSSENHOFF_IDS, [True, True, True, False, False]))
    for check, tol in zip(rep.checks[3:], (1e-10, 100.0)):
        assert math.isnan(check.value) and check.tolerance == tol
        assert check.extra == {"error": "ClosureError: spin closure unsolvable: residual 5.000e-01"}
    assert not rep.passed


def _raises(*args):
    raise ValueError("computation failed")


def test_a_programming_error_stops_the_run(monkeypatch):
    # only the errors in _FAILURES fail their own check: a TypeError is a fault of the
    # program, not a residual, so it surfaces from run_suite instead of a report
    def planted(*args):
        raise TypeError("planted")

    monkeypatch.setattr(algebra, "polarize", planted)
    with pytest.raises(TypeError, match="planted"):
        run_suite("all", options={"grids": (5, 9)})


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pooled"])
def test_a_raising_field_fails_only_the_check_that_reads_it(monkeypatch, fork_pools, cpus):
    # forms.05 reads the two incompatibility fields alone; the dislocation fields after
    # them are still collected in order and their checks pass
    monkeypatch.setattr(weyssenhoff, "_cpus", lambda: cpus)
    monkeypatch.setattr(suites, "_bianchi_norm", _raises)
    (rep,) = run_suite("forms", options={"grids": (5, 9)})
    assert [(c.check_id, c.passed) for c in rep.checks] == [
        ("forms.01-dd-zero", True), ("forms.02-wedge-antisymmetry", True),
        ("forms.05-bianchi-order", False), ("forms.03-dislocation-order-p2", True),
        ("forms.04-dislocation-norm-p2", True), ("forms.03-dislocation-order-p3", True),
        ("forms.04-dislocation-norm-p3", True), ("forms.06-hand-dislocation", True)]
    assert rep.checks[2].extra == {"error": "ValueError: computation failed"}
    assert len(fork_pools) == cpus - 1
    assert multiprocessing.active_children() == []


def _dies(*args):
    os._exit(3)


@pytest.mark.parametrize("broken, error", [(_raises, "ValueError: computation failed"),
                                           (_dies, "BrokenProcessPool: ")], ids=["raises", "dies"])
def test_a_failing_worker_fails_every_check_that_reads_its_fields(monkeypatch, fork_pools,
                                                                  broken, error):
    """A worker that raises, or dies and breaks the pool, fails the five checks that read
    worker fields, each with its extra.error; the suite's other checks pass, and no
    worker is left behind."""
    monkeypatch.setattr(weyssenhoff, "_cpus", lambda: 2)
    monkeypatch.setattr(suites, "_bianchi_norm", broken)
    monkeypatch.setattr(suites, "_dislocation_norm", broken)
    (rep,) = run_suite("forms", options={"grids": (5, 9)})
    assert not rep.passed
    assert [(c.check_id, c.passed) for c in rep.checks] == [
        ("forms.01-dd-zero", True), ("forms.02-wedge-antisymmetry", True),
        ("forms.05-bianchi-order", False), ("forms.03-dislocation-order-p2", False),
        ("forms.04-dislocation-norm-p2", False), ("forms.03-dislocation-order-p3", False),
        ("forms.04-dislocation-norm-p3", False), ("forms.06-hand-dislocation", True)]
    for check in rep.checks[2:7]:
        assert math.isnan(check.value) and set(check.extra) == {"error"}
        assert check.extra["error"].startswith(error)
    assert len(fork_pools) == 1
    assert multiprocessing.active_children() == []


def test_seeded_determinism_of_report_values():
    a = run_suite("weyssenhoff", seed=9, options={"steps": 100, "dtau": 0.02})[0]
    b = run_suite("weyssenhoff", seed=9, options={"steps": 100, "dtau": 0.02})[0]
    va = [(c.check_id, c.value) for c in a.checks]
    vb = [(c.check_id, c.value) for c in b.checks]
    assert va == vb


def test_refinement_checks_carry_report_schema():
    # every bracket check says its order estimate once, as value and extra.order_estimate,
    # inside [extra.low, extra.high] bounds whose upper end is the tolerance
    brackets = {
        "forms": ["forms.03-dislocation-order-p2", "forms.03-dislocation-order-p3",
                  "forms.05-bianchi-order"],
        "cosserat": ["cosserat.03-manufactured-order", "cosserat.04-integration-by-parts"],
        "weyssenhoff": ["weyssenhoff.05-drift-order"],
    }
    for suite, ids in brackets.items():
        rep = run_suite(suite, seed=0, options={"grids": (9, 17), "steps": 100, "dtau": 0.02})[0]
        refine = [c for c in rep.checks if "low" in c.extra]
        assert sorted(c.check_id for c in refine) == ids
        for c in refine:
            assert c.extra["order_estimate"] == c.value
            assert c.extra["low"] <= c.extra["high"] == c.tolerance
            assert "estimate" not in c.extra
            assert "grid" in c.extra or "coarse" in c.extra


@pytest.mark.parametrize("suite", ["algebra", "dirac", "weyssenhoff"])
def test_check_runtimes_are_laps_of_one_clock(monkeypatch, suite):
    # on a clock that ticks one second per reading, the checks' runtimes add up to the
    # suite's run time, and each check's lap holds at least its own reading
    readings = []

    def clock():
        readings.append(len(readings))
        return float(readings[-1])

    monkeypatch.setattr(time, "perf_counter", clock)
    rep = run_suite(suite, options={"steps": 100, "dtau": 0.02})[0]
    assert sum(c.runtime_ms for c in rep.checks) == 1000.0 * (readings[-1] - readings[0])
    assert all(c.runtime_ms > 0 for c in rep.checks)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_smooth_group_field_matches_per_point_sampling(p, which):
    lat = _lattice(p, 5)
    fn = _displacement_closure(which, algebra.rotation_matrix_generator(3),
                               algebra.boost_matrix_generator(1),
                               algebra.rotation_matrix_generator(1))
    want = deformation.GroupField.from_function(lat, fn)
    got = _smooth_group_field(lat, which)
    assert np.allclose(got.a, want.a, rtol=0, atol=1e-14)
    assert np.allclose(got.L, want.L, rtol=0, atol=1e-14)


def _bump_closure(p):
    """The state of the cosserat suite, with scipy's expm, point by point, as the exponential."""
    J3 = algebra.rotation_matrix_generator(3)
    K1 = algebra.boost_matrix_generator(1)

    def fn(c):
        r = sum(c)
        x = np.zeros(r.shape + (4,))
        x[..., :p] = np.stack(c, axis=-1)
        x[..., 0] += 0.1 * np.sin(r)
        x[..., 3] = 0.2 * np.cos(c[0])
        return x, scipy.linalg.expm((0.2 * np.sin(c[0]))[..., None, None] * J3
                                    + (0.1 * np.cos(r))[..., None, None] * K1)

    return fn


@pytest.mark.parametrize("p,n", [(2, 5), (2, 9), (3, 5)])
def test_bump_state_matches_per_point_prolong(p, n):
    lat = _lattice(p, n)
    want = kinematics.prolong(lat, _bump_closure(p))
    got = _bump_state(lat)
    for name in ("x", "e", "xj", "ej"):
        assert np.allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-14), name


def test_algebra_blocks_follow_the_per_sample_stream():
    # one (N, 3, 10) block and one (N, 12) block equal the per-sample draws they replace
    blocked, looped = np.random.default_rng(3), np.random.default_rng(3)
    x, y, z = (_algebra_stack(c) for c in np.moveaxis(blocked.uniform(-1, 1, (5, 3, 10)), 1, 0))
    draws = blocked.uniform(-1, 1, (4, 12))
    v, w = _algebra_stack(draws[:, :10])
    for k in range(5):
        for (vs, ws) in (x, y, z):
            el = _algebra_stack(looped.uniform(-1, 1, size=10))
            assert np.array_equal(vs[k], el[0]) and np.array_equal(ws[k], el[1])
    for k in range(4):
        el = _algebra_stack(looped.uniform(-1, 1, size=10))
        assert np.array_equal(v[k], el[0]) and np.array_equal(w[k], el[1])
        assert np.array_equal(draws[k, 10:], looped.uniform(-1, 1, size=2))


@pytest.mark.parametrize("coarse, fine", [(0.0, 1e-3), (1e-3, 0.0), (0.0, 0.0), (np.nan, 1e-3),
                                          (1e-3, np.nan), (np.inf, 1e-3), (1e-3, np.inf)],
                         ids=["zero-coarse", "zero-fine", "zero-both", "nan-coarse", "nan-fine",
                              "inf-coarse", "inf-fine"])
def test_order_of_an_unmeasurable_ratio_fails_its_bracket(monkeypatch, coarse, fine):
    def suite(rng, options):
        yield "x.01-order", "law", 1.7, 2.3, lambda: (suites._order(coarse, fine), {})

    monkeypatch.setitem(suites._SUITES, "algebra", suite)
    (rep,) = run_suite("algebra")
    (check,) = rep.checks
    assert np.isnan(check.value) and np.isnan(check.extra["order_estimate"])
    assert (check.extra["low"], check.extra["high"], check.tolerance) == (1.7, 2.3, 2.3)
    assert not check.passed and not rep.passed


@pytest.mark.parametrize("coarse, fine", [(4.0, 1.0), (3.1e-5, 7.9e-6), (1e-300, 3e-301),
                                          (np.float64(0.7), 0.11)])
def test_order_of_a_finite_ratio_is_its_log2(coarse, fine):
    assert suites._order(coarse, fine) == float(np.log2(coarse / fine))


@pytest.mark.parametrize("seed, grids", [(0, (5, 9)), (1, (5, 9)), (0, None)],
                         ids=["seed0-5,9", "seed1-5,9", "seed0-default"])
def test_pooled_forms_suite_equals_the_in_process_suite(monkeypatch, fork_pools, seed, grids):
    options = {"grids": grids} if grids else {}
    reports = {}
    for cpus in (1, 2):
        monkeypatch.setattr(weyssenhoff, "_cpus", lambda: cpus)
        reports[cpus] = _strip_runtime([rep.as_dict() for rep in run_suite("forms", seed, options)])
        assert len(fork_pools) == cpus - 1
    assert reports[2] == reports[1]
    assert multiprocessing.active_children() == []
