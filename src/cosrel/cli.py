"""Command-line front end: verification suites and worldline simulations.

Exit codes: 0 all checks pass, 1 any check fails, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__, weyssenhoff
from .minkowski import ETA

SIMULATION_KINDS = ("weyssenhoff-worldline",)
#: the flags each mode refuses, because only the other mode reads them
_UNREAD = {"suite": ("output",), "simulate": ("grid", "seed")}
#: the keys a mode reads, by config section; any other section or key is refused
_CONFIG_KEYS = {"worldline": ("c", "x", "u", "g", "rho0", "s", "steps", "dtau")}


def _load_config(path):
    """The parsed --config file, `%` taken literally; an empty config without a path.

    A file that cannot be read or decoded, that configparser rejects (no section
    header, a line that is not key = value, a repeated key), or that holds a
    section or key no mode reads (a typo would run on the default) raises
    ValueError with a one-line message.
    """
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        if path is not None and not cfg.read(path):
            raise ValueError(f"config file not readable: {path}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"config file not parsable: {' '.join(str(exc).split())}") from None
    for name, sec in cfg.items():          # [DEFAULT] first: no mode reads it either
        unread = [key for key in sec if key not in _CONFIG_KEYS.get(name, ())]
        if unread or name not in _CONFIG_KEYS and name != cfg.default_section:
            raise ValueError(f"[{name}]{' ' + unread[0] if unread else ''} is not read by any mode")
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


def _grids(text: str) -> tuple:
    """--grid's (coarse, fine) refinement pair: two integer grid sizes >= 3, coarse below fine."""
    try:
        grids = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        grids = ()
    if len(grids) != 2 or not 3 <= grids[0] < grids[1]:
        raise ValueError("--grid needs two integer grid sizes >= 3, coarse below fine, "
                         f"got {text!r}")
    return grids


def _whole(value, source: str, noun: str = "step count") -> int:
    """value as an int, written in digits only; anything else is refused, naming source."""
    if not str(value).isdecimal():
        raise ValueError(f"{source} needs an integer {noun} >= 0, got {value}")
    return int(value)


def _dtau(value, source: str) -> float:
    """value as a finite float; anything else is refused, naming source."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{source} needs a finite step size, got {value}")
    return number


def _run_length(cfg, args) -> dict:
    """steps and dtau: each [worldline] value read, then its flag read over it."""
    options = {}
    for key, read in (("steps", _whole), ("dtau", _dtau)):
        if cfg.has_option("worldline", key):
            options[key] = read(cfg.get("worldline", key), f"[worldline] {key}")
        if getattr(args, key) is not None:
            options[key] = read(getattr(args, key), f"--{key}")
    return options


def _suite_options(args) -> dict:
    from . import suites  # here, not above: a run without a suite never compiles suites.py
    names = suites.SUITE_NAMES + ("all",)
    if args.suite not in names:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {names}")
    options = {"grids": suites.DEFAULT_GRIDS, "steps": suites.DEFAULT_STEPS,
               "dtau": suites.DEFAULT_DTAU}
    if args.grid is not None:
        options["grids"] = _grids(args.grid)
    return options


def _require_writable(path, flag: str):
    """Refuse an output path that cannot be opened for writing; a probe leaves no file."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ValueError(f"{flag} {path} cannot be written: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def _same_file(a, b) -> bool:
    """Whether paths a and b name one file: one existing file, or else the same real path."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _element_from_config(kind, cfg) -> tuple:
    """The unvalidated initial element and the default run length of a --simulate run."""
    if kind not in SIMULATION_KINDS:
        raise ValueError(f"unknown simulation kind {kind!r}; choose from {SIMULATION_KINDS}")
    if not cfg.has_section("worldline"):
        raise ValueError("config needs a [worldline] section with initial conditions")
    sec = cfg["worldline"]
    # the worldline works in natural units; the key stays readable for configs that write it
    if _numbers(sec, "c", 1, "1") != [1.0]:
        raise ValueError("[worldline] c must be 1 (the worldline works in natural units), "
                         f"got {sec['c']!r}")
    x = np.array(_numbers(sec, "x", 4, "0 0 0 0"))
    u = np.array(_numbers(sec, "u", 4))
    s = weyssenhoff.spin_matrix_from_components(_numbers(sec, "s", 6, "0 0 0 0 0 0"))
    if "g" in sec:
        g = np.array(_numbers(sec, "g", 4))
    else:
        (rho0,) = _numbers(sec, "rho0", 1, "1.0")
        g = rho0 * (ETA @ u)
    return weyssenhoff.WeyssenhoffElement(x, u, g, s), {"steps": 1000, "dtau": 0.01}


def _run_suites(args, seed: int, options: dict) -> int:
    from . import suites
    reports = suites.run_suite(args.suite, seed=seed, options=options)
    for rep in reports:
        print(f"suite {rep.suite}: {'PASS' if rep.passed else 'FAIL'} (seed {rep.seed})")
        for c in sorted(rep.checks, key=lambda c: c.check_id):
            mark = "ok  " if c.passed else "FAIL"
            print(f"  [{mark}] {c.check_id:44s} {c.law:36s} "
                  f"value={c.value:.3e} tol={c.tolerance:.3e}")
    passed = all(rep.passed for rep in reports)
    if args.json:
        run = {"options": {"grids": list(options["grids"]), "steps": options["steps"],
                           "dtau": options["dtau"]},
               "versions": {"cosrel": __version__, "python": platform.python_version(),
                            "numpy": np.__version__}}
        payload = {"seed": seed, "reports": [rep.as_dict() for rep in reports], "passed": passed,
                   "run": run}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if passed else 1


def _run_simulation(element, params: dict, out, summary_path) -> int:
    # a forked writer formats the CSV table while the steps run; without one it is
    # formatted here after the last step
    with weyssenhoff.forked_csv(out) as writer:
        traj = weyssenhoff.integrate_worldline(element, **params, on_block=writer)
        if writer is None:
            traj.write_csv(out)
        else:
            writer.commit()
    traj.write_json(summary_path)
    print(f"wrote {len(traj.tau)} records to {out}; diagnostics in {summary_path}")
    print(f"drift summary: {traj.drift_summary()}")
    print(f"regime: {traj.regime()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosrel",
        description="Verification suites and simulations for the relativistic "
                    "Cosserat toolkit.")
    parser.add_argument("--suite", metavar="NAME",
                        help="run a named verification suite, or all of them")
    parser.add_argument("--simulate", metavar="KIND",
                        help="run a simulation (weyssenhoff-worldline)")
    parser.add_argument("--config", metavar="PATH", help="key = value config file (INI sections)")
    parser.add_argument("--json", metavar="PATH", help="write the machine-readable report here")
    parser.add_argument("--output", metavar="PATH", help="trajectory output path for simulations")
    parser.add_argument("--seed", metavar="N",
                        help="seed for randomized property checks (default 0)")
    parser.add_argument("--grid", metavar="N,N",
                        help="the forms suite's coarse and fine grid sizes "
                             "(each >= 3, coarse below fine)")
    parser.add_argument("--steps", metavar="N", help="integrator steps")
    parser.add_argument("--dtau", metavar="X", help="integrator step size")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.suite is None) == (args.simulate is None):
        parser.print_usage(sys.stderr)
        print("error: pass exactly one of --suite or --simulate", file=sys.stderr)
        return 2
    # settings: each flag and config value the mode uses is read, or refused with exit 2
    element = None
    try:
        cfg = _load_config(args.config)
        if args.suite:
            draft, options = None, _suite_options(args)
            outputs = {"--json": args.json}
        else:
            draft, options = _element_from_config(args.simulate, cfg)
            out = args.output or "trajectory.csv"
            outputs = {"--output": out, "--json": args.json or out + ".json"}
            if _same_file(*outputs.values()):
                raise ValueError(f"--output {out} and the summary path {outputs['--json']} "
                                 "name one file")
        options.update(_run_length(cfg, args))
        seed = 0 if args.seed is None else _whole(args.seed, "--seed", "seed")
        # both modes start at tau 0; weyssenhoff.05's fine run ends where this grid ends
        weyssenhoff.tau_grid(options["steps"], options["dtau"])
        mode = "suite" if args.suite else "simulate"
        for name in _UNREAD[mode]:
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} is not read by --{mode}")
        for flag, path in outputs.items():
            if path is not None:
                _require_writable(path, flag)
        if draft is not None:
            element = draft                   # a ValueError from here on is a refusal
            element.validate()
    except ValueError as exc:
        if element is None:
            print(f"error: {exc}", file=sys.stderr)
        else:
            print(f"refused: {exc}", file=sys.stderr)
            print(f"residuals: {element.invariant_defects()}", file=sys.stderr)
        return 2
    # run: an output path that cannot be written is exit 2; a failed check or integration,
    # or an array that does not fit in memory, is 1
    try:
        if element is None:
            return _run_suites(args, seed, options)
        return _run_simulation(element, options, outputs["--output"], outputs["--json"])
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
