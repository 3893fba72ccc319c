"""Command-line front end: verification suites and worldline simulations.

Exit codes: 0 all checks pass, 1 any check fails, 2 usage or configuration error.
The COSREL_CONFIG environment variable overrides the --config path.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys

import numpy as np

from . import suites, weyssenhoff
from .minkowski import ETA

SIMULATION_KINDS = ("weyssenhoff-worldline",)


def _load_config(path):
    """The parsed --config file, `%` taken literally; an empty config without a path.

    A file configparser rejects (no section header, a line that is not
    key = value, a repeated key) raises configparser.Error with a one-line message.
    """
    cfg = configparser.ConfigParser(interpolation=None)
    if path is None:
        return cfg
    try:
        read = cfg.read(path)
    except configparser.Error as exc:
        raise configparser.Error(f"config file not parsable: {' '.join(str(exc).split())}") \
            from None
    if not read:
        raise FileNotFoundError(f"config file not readable: {path}")
    return cfg


def _numbers(sec, key: str, count: int, default: str = None) -> list:
    """The `count` numbers of [worldline] key; any other value is refused, naming the key."""
    text = sec.get(key, default)
    try:
        values = [float(tok) for tok in (text or "").replace(",", " ").split()]
    except ValueError:
        values = []
    if len(values) != count:
        raise ValueError(f"[worldline] {key} needs {count} number(s), got {text!r}")
    return values


def _grids(text: str, source: str) -> tuple:
    """The (coarse, fine) refinement pair: two integer grid sizes >= 3, coarse below fine."""
    try:
        grids = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        grids = ()
    if len(grids) != 2 or not 3 <= grids[0] < grids[1]:
        raise ValueError(f"{source} needs two integer grid sizes >= 3, coarse below fine, "
                         f"got {text!r}")
    return grids


def _steps(value, source: str) -> int:
    if not str(value).isdecimal():
        raise ValueError(f"{source} needs an integer step count >= 0, got {value}")
    return int(value)


def _bounded(value, source: str, need: str, ok) -> float:
    """value as a float; refused, naming source, if it is not numeric or fails ok."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not ok(number):
        raise ValueError(f"{source} needs {need}, got {value}")
    return number


def _dtau(value, source: str) -> float:
    return _bounded(value, source, "a finite step size", math.isfinite)


def _step_overrides(args, options: dict) -> dict:
    """Apply --steps and --dtau over the config values."""
    if args.steps is not None:
        options["steps"] = _steps(args.steps, "--steps")
    if args.dtau is not None:
        options["dtau"] = _dtau(args.dtau, "--dtau")
    return options


def _suite_options(cfg, args) -> dict:
    options = {}
    if cfg.has_option("forms", "grids"):
        options["grids"] = _grids(cfg.get("forms", "grids"), "[forms] grids")
    for key, cast in (("steps", _steps), ("dtau", _dtau)):
        if cfg.has_option("worldline", key):
            options[key] = cast(cfg.get("worldline", key), f"[worldline] {key}")
    if args.grid is not None:
        options["grids"] = _grids(args.grid, "--grid")
    return _step_overrides(args, options)


def _print_report(report: suites.SuiteReport):
    head = "PASS" if report.passed else "FAIL"
    print(f"suite {report.suite}: {head} (seed {report.seed})")
    for c in sorted(report.checks, key=lambda c: c.check_id):
        mark = "ok  " if c.passed else "FAIL"
        print(f"  [{mark}] {c.check_id:44s} {c.law:36s} "
              f"value={c.value:.3e} tol={c.tolerance:.3e}")


def _run_suites(args) -> int:
    cfg = _load_config(args.config)
    try:
        options = _suite_options(cfg, args)
        # weyssenhoff.05's fine run (2n steps of dtau/2) ends where this grid ends
        weyssenhoff.tau_grid(0.0, options.get("steps", suites.DEFAULT_STEPS),
                             options.get("dtau", suites.DEFAULT_DTAU))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = suites.run_suite(args.suite, seed=args.seed, options=options)
    for rep in reports:
        _print_report(rep)
    if args.json:
        payload = {"seed": args.seed,
                   "reports": [rep.as_dict() for rep in reports],
                   "passed": all(rep.passed for rep in reports)}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(rep.passed for rep in reports) else 1


def _element_from_config(cfg) -> tuple:
    if not cfg.has_section("worldline"):
        raise ValueError("config needs a [worldline] section with initial conditions")
    sec = cfg["worldline"]
    (c,) = _numbers(sec, "c", 1, "1.0")
    x = np.array(_numbers(sec, "x", 4, "0 0 0 0"))
    u = np.array(_numbers(sec, "u", 4))
    s = weyssenhoff.spin_matrix_from_components(_numbers(sec, "s", 6, "0 0 0 0 0 0"))
    if "g" in sec:
        g = np.array(_numbers(sec, "g", 4))
    else:
        (rho0,) = _numbers(sec, "rho0", 1, "1.0")
        g = rho0 * (ETA @ u)
    project = sec.get("projection", "off").lower()    # on/true/1/yes or off/false/0/no
    if project not in cfg.BOOLEAN_STATES:
        raise ValueError(f"[worldline] projection needs on or off, got {project!r}")
    element = weyssenhoff.WeyssenhoffElement(x, u, g, s, c=c)
    params = {
        "steps": _steps(sec.get("steps", "1000"), "[worldline] steps"),
        "dtau": _dtau(sec.get("dtau", "0.01"), "[worldline] dtau"),
        "project": cfg.BOOLEAN_STATES[project],
        "solver_tol": _bounded(sec.get("solver_tol", "1e-3"), "[worldline] solver_tol",
                               "a finite tolerance > 0", lambda t: math.isfinite(t) and t > 0),
    }
    if sec.get("drift_max", "").strip():
        params["drift_max"] = _bounded(sec["drift_max"], "[worldline] drift_max",
                                       "a drift bound >= 0 or no value", lambda d: d >= 0)
    return element, params


def _run_simulation(args) -> int:
    if args.simulate not in SIMULATION_KINDS:
        print(f"error: unknown simulation kind {args.simulate!r}; "
              f"choose from {SIMULATION_KINDS}", file=sys.stderr)
        return 2
    cfg = _load_config(args.config)
    try:
        element, params = _element_from_config(cfg)
        _step_overrides(args, params)
        weyssenhoff.tau_grid(element.tau, params["steps"], params["dtau"])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        element.validate()
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        print(f"residuals: {element.invariant_defects()}", file=sys.stderr)
        return 2
    traj = weyssenhoff.integrate_worldline(element, **params)
    out = args.output or "trajectory.csv"
    summary_path = args.json or (out + ".json")
    traj.write_csv(out)
    traj.write_json(summary_path)
    print(f"wrote {len(traj.tau)} records to {out}; diagnostics in {summary_path}")
    print(f"drift summary: {traj.drift_summary()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosrel",
        description="Verification suites and simulations for the relativistic "
                    "Cosserat toolkit.")
    parser.add_argument("--suite", choices=suites.SUITE_NAMES + ("all",),
                        help="run a named verification suite")
    parser.add_argument("--simulate", metavar="KIND",
                        help="run a simulation (weyssenhoff-worldline)")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="key = value config file (INI sections)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the machine-readable report here")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="trajectory output path for simulations")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized property checks (default 0)")
    parser.add_argument("--grid", metavar="N,N", default=None,
                        help="the forms suite's coarse and fine grid sizes "
                             "(each >= 3, coarse below fine)")
    parser.add_argument("--steps", type=int, default=None, help="integrator steps")
    parser.add_argument("--dtau", type=float, default=None, help="integrator step size")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env_config = os.environ.get("COSREL_CONFIG")
    if env_config:
        args.config = env_config
    if (args.suite is None) == (args.simulate is None):
        parser.print_usage(sys.stderr)
        print("error: pass exactly one of --suite or --simulate", file=sys.stderr)
        return 2
    try:
        if args.suite:
            return _run_suites(args)
        return _run_simulation(args)
    except (FileNotFoundError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (weyssenhoff.ClosureError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
