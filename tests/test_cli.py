import json
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import cosrel
from cosrel import weyssenhoff
from cosrel.cli import build_parser, main
from cosrel.minkowski import ETA


def _run_python(*args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    # the child imports the same cosrel as this process, installed or not
    src = os.path.dirname(os.path.dirname(cosrel.__file__))
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, full_env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=full_env)


def _run(args, env=None):
    return _run_python("-m", "cosrel.cli", *args, env=env)


def _strip_runtime(obj):
    if isinstance(obj, dict):
        return {k: _strip_runtime(v) for k, v in obj.items() if k != "runtime_ms"}
    if isinstance(obj, list):
        return [_strip_runtime(v) for v in obj]
    return obj


def test_passing_suite_exits_zero(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["--suite", "algebra", "--json", str(out), "--seed", "3"]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["reports"][0]["suite"] == "algebra"
    ids = [c["id"] for c in payload["reports"][0]["checks"]]
    assert ids == sorted(ids)
    assert all(c["law"] for c in payload["reports"][0]["checks"])


def test_unknown_suite_exits_two():
    proc = _run(["--suite", "nonsense"])
    assert proc.returncode == 2


def test_no_mode_exits_two():
    proc = _run([])
    assert proc.returncode == 2


def test_unreadable_config_exits_two(tmp_path):
    assert main(["--suite", "algebra", "--config", str(tmp_path / "missing.ini")]) == 2


def test_seeded_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["--suite", "algebra", "--json", str(a), "--seed", "7"]) == 0
    assert main(["--suite", "algebra", "--json", str(b), "--seed", "7"]) == 0
    ja = json.dumps(_strip_runtime(json.loads(a.read_text())), sort_keys=True)
    jb = json.dumps(_strip_runtime(json.loads(b.read_text())), sort_keys=True)
    assert ja.encode() == jb.encode()


def test_simulation_writes_trajectory_and_summary(tmp_path):
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = 1 0 0 0\nrho0 = 1.5\ns = 0 0 0 0.5 0 0\n"
                   "steps = 40\ndtau = 0.01\n")
    out = tmp_path / "traj.csv"
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 42
    u = np.array([1.0, 0, 0, 0])
    el = weyssenhoff.WeyssenhoffElement(
        np.zeros(4), u, 1.5 * (ETA @ u),
        weyssenhoff.spin_matrix_from_components([0, 0, 0, 0.5, 0, 0]))
    drift = weyssenhoff.integrate_worldline(el, 40, 0.01).drift_summary()
    payload = {"g": [1.5, 0.0, 0.0, 0.0], "c": 1.0, "drift_summary": drift,
               "run": {"steps": 40, "dtau": 0.01, "project": False, "solver_tol": 1e-3},
               "regime": {"mu0_defined": True, "g_square": 2.25}}
    summary = (tmp_path / "traj.csv.json").read_text()
    assert summary == json.dumps(payload, indent=1, sort_keys=True) + "\n"
    assert "records" not in json.loads(summary)
    assert drift["u_norm"] <= 1e-12


def test_simulation_files_equal_the_writer_adapters(tmp_path):
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = 1.25 0 0 0.75\nrho0 = 1.5\ns = 0 0 0 0.5 0 0\n"
                   "steps = 40\ndtau = 0.01\n")
    out, summary = tmp_path / "traj.csv", tmp_path / "summary.json"
    made = []
    integrate = weyssenhoff.integrate_worldline

    def keep(*args, **kwargs):
        made.append(integrate(*args, **kwargs))
        return made[-1]

    with mock.patch.object(weyssenhoff, "integrate_worldline", keep):
        assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                     "--output", str(out), "--json", str(summary)]) == 0
    (traj,) = made
    traj.write_csv(tmp_path / "a.csv")
    traj.write_json(tmp_path / "a.json")
    assert out.read_bytes() == (tmp_path / "a.csv").read_bytes()
    assert summary.read_bytes() == (tmp_path / "a.json").read_bytes()


def test_simulation_flag_overrides_config(tmp_path):
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = 1 0 0 0\nrho0 = 1.0\nsteps = 40\ndtau = 0.01\n")
    out = tmp_path / "t.csv"
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(out), "--steps", "12"]) == 0
    assert len(out.read_text().splitlines()) == 14


def test_unknown_simulation_kind_exits_two(tmp_path):
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = 1 0 0 0\n")
    assert main(["--simulate", "bogus", "--config", str(cfg)]) == 2


def test_invariant_violating_initial_data_refused(tmp_path, capsys):
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = 1 0.5 0 0\nrho0 = 1.0\nsteps = 5\ndtau = 0.01\n")
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert "refused" in err and "residuals" in err


def test_nan_initial_data_refused(tmp_path, capsys):
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = nan 0 0 0\nsteps = 5\ndtau = 0.01\n")
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(tmp_path / "t.csv")]) == 2
    assert "refused:" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_env_var_overrides_config_path(tmp_path):
    good = tmp_path / "good.ini"
    good.write_text("[worldline]\nu = 1 0 0 0\nrho0 = 1.0\nsteps = 8\ndtau = 0.01\n")
    out = tmp_path / "t.csv"
    proc = _run(["--simulate", "weyssenhoff-worldline",
                 "--config", str(tmp_path / "missing.ini"), "--output", str(out)],
                env={"COSREL_CONFIG": str(good)})
    assert proc.returncode == 0
    assert out.exists()


def test_grid_flag_parses(tmp_path):
    # forms suite at smaller grids to keep this quick
    out = tmp_path / "rep.json"
    assert main(["--suite", "forms", "--grid", "9,17", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    checks = {c["id"]: c for c in payload["reports"][0]["checks"]}
    assert checks["forms.03-dislocation-order-p2"]["extra"]["grid"] == [9, 17]


@pytest.mark.parametrize("grid", ["17", "a,b", "2,5", "9,17,33", "17.5,33", "9,9", "17,9"])
def test_bad_grid_flag_is_usage_error(grid, capsys):
    assert main(["--suite", "forms", "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --grid") and err.count("\n") == 1


@pytest.mark.parametrize("grids", ["17", "x 33", "2, 5", "9, 17, 33", "17, 9"])
def test_bad_config_grids_are_usage_error(tmp_path, grids, capsys):
    cfg = tmp_path / "suite.ini"
    cfg.write_text(f"[forms]\ngrids = {grids}\n")
    assert main(["--suite", "forms", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [forms] grids") and err.count("\n") == 1


_STEP_MODES = [["--suite", "weyssenhoff"], ["--simulate", "weyssenhoff-worldline"]]


@pytest.mark.parametrize("mode", _STEP_MODES)
@pytest.mark.parametrize("flag", ["--steps=-1", "--steps=-3", "--dtau=nan", "--dtau=inf", "--dtau=-inf",
                                  "--steps=1.5", "--steps=x", "--dtau=abc", "--seed=-1", "--seed=x"])
def test_bad_step_flag_is_usage_error(tmp_path, mode, flag, capsys):
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = 1 0 0 0\n")
    out = tmp_path / "t.csv"
    assert main([*mode, "--config", str(cfg), "--output", str(out), flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag.split('=')[0]} needs") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("mode", _STEP_MODES)
@pytest.mark.parametrize("line", ["steps = -1", "steps = 1.5", "dtau = nan", "dtau = -inf"])
def test_bad_config_step_is_usage_error(tmp_path, mode, line, capsys):
    cfg = tmp_path / "wl.ini"
    cfg.write_text(f"[worldline]\nu = 1 0 0 0\n{line}\n")
    out = tmp_path / "t.csv"
    assert main([*mode, "--config", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"[worldline] {line.split()[0]} needs" in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["solver_tol = nan", "solver_tol = -1", "solver_tol = 0",
                                  "solver_tol = inf", "solver_tol = x", "drift_max = nan",
                                  "drift_max = -1e-9", "drift_max = x"])
def test_bad_config_gate_is_usage_error(tmp_path, line, capsys):
    cfg = tmp_path / "wl.ini"
    cfg.write_text(f"[worldline]\nu = 1 0 0 0\nsteps = 5\n{line}\n")
    out = tmp_path / "t.csv"
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"[worldline] {line.split()[0]} needs" in err
    assert not out.exists()


def test_empty_drift_max_disables_the_gate(tmp_path):
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = 1 0 0 0\nsteps = 5\ndrift_max =\n")
    out = tmp_path / "t.csv"
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("key, lines", [
    ("x", "x = 0 0 0\nu = 1 0 0 0"),
    ("g", "u = 1 0 0 0\ng = 1 0 0"),
    ("rho0", "u = 1 0 0 0\nrho0 = abc"),
    ("c", "c = abc\nu = 1 0 0 0"),
    ("u", "rho0 = 1.0"),
    ("s", "u = 1 0 0 0\ns = 0 0 0"),
    ("s", "u = 1 0 0 0\ns = 0 0 0 0.5 0 0 0"),
    ("projection", "u = 1 0 0 0\nprojection = maybe"),
], ids=["x-3", "g-3", "rho0-abc", "c-abc", "u-missing", "s-3", "s-7",
        "projection-maybe"])
def test_unusable_worldline_value_is_refused_by_key(tmp_path, key, lines, capsys):
    cfg = tmp_path / "wl.ini"
    cfg.write_text(f"[worldline]\n{lines}\n")
    out = tmp_path / "t.csv"
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [worldline] {key} needs")
    assert err.count("\n") == 1
    assert not out.exists() and not (tmp_path / "t.csv.json").exists()


@pytest.mark.parametrize("mode, text, need", [
    (_STEP_MODES[1], "u = 1 0 0 0\n", "config file not parsable: File contains no section headers"),
    (_STEP_MODES[0], "u = 1 0 0 0\n", "config file not parsable: File contains no section headers"),
    (_STEP_MODES[1], "[worldline]\nu = 1 0 0 0%\n", "[worldline] u needs 4 number(s)"),
    (_STEP_MODES[0], "[worldline]\nsteps = 5%\n", "[worldline] steps needs"),
    (_STEP_MODES[1], "[worldline]\nu = 1 0 0 0\nu = 1 0 0 0\n", "config file not parsable"),
    (_STEP_MODES[0], "[worldline]\nsteps\n", "config file not parsable"),
    (_STEP_MODES[1], b"[worldline]\nu = 1 0 0 0 \xff\xfe\n", "config file not parsable"),
    (_STEP_MODES[0], b"[worldline]\nsteps = 5 \xff\xfe\n", "config file not parsable"),
], ids=["no-header-simulate", "no-header-suite", "percent-simulate", "percent-suite",
        "repeated-key", "no-equals", "not-utf8-simulate", "not-utf8-suite"])
def test_config_configparser_rejects_is_usage_error(tmp_path, mode, text, need, capsys):
    cfg = tmp_path / "wl.ini"
    cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "t.csv"
    assert main([*mode, "--config", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {need}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--suite", "dirac", "--json", "{dir}"],
    ["--simulate", "weyssenhoff-worldline", "--output", "{dir}"],
    ["--simulate", "weyssenhoff-worldline", "--output", "{dir}/t.csv", "--json", "{dir}"],
], ids=["suite-json", "simulate-output", "simulate-json"])
def test_unwritable_output_path_is_usage_error(tmp_path, args, capsys):
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = 1 0 0 0\nsteps = 5\n")
    argv = [a.format(dir=tmp_path) for a in args]
    assert main([*argv, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Is a directory" in err


@pytest.mark.parametrize("args, target", [
    (["--suite", "dirac", "--json", "{dir}"], "cosrel.suites.run_suite"),
    (["--suite", "dirac", "--json", "{dir}/missing/r.json"], "cosrel.suites.run_suite"),
    (["--simulate", "weyssenhoff-worldline", "--output", "{dir}/h.csv", "--json", "{dir}"],
     "cosrel.weyssenhoff.integrate_worldline"),
    (["--simulate", "weyssenhoff-worldline", "--output", "{dir}/missing/h.csv"],
     "cosrel.weyssenhoff.integrate_worldline"),
], ids=["suite-json-directory", "suite-json-no-parent", "simulate-json-directory",
        "simulate-output-no-parent"])
def test_output_paths_are_checked_before_the_run(tmp_path, args, target, capsys):
    """Nothing runs and no file is left behind."""
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = 1 0 0 0\nsteps = 5\n")
    before = sorted(tmp_path.iterdir())
    argv = [a.format(dir=tmp_path) for a in args]
    with mock.patch(target) as run:
        assert main([*argv, "--config", str(cfg)]) == 2
    run.assert_not_called()
    err = capsys.readouterr().err
    assert err.startswith("error: --") and "cannot be written" in err and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_existing_output_is_probed_without_change(tmp_path, capsys):
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = 1 0 0 0\nsteps = 5\n")
    out = tmp_path / "t.csv"
    out.write_text("old\n")
    argv = ["--simulate", "weyssenhoff-worldline", "--config", str(cfg), "--output", str(out),
            "--json", str(tmp_path)]
    assert main(argv) == 2
    assert out.read_text() == "old\n"


@pytest.mark.parametrize("args, flag", [
    (["--simulate", "weyssenhoff-worldline", "--grid", "abc"], "--grid"),
    (["--simulate", "weyssenhoff-worldline", "--grid", "9,17"], "--grid"),
    (["--simulate", "weyssenhoff-worldline", "--seed", "3"], "--seed"),
    (["--suite", "algebra", "--output", "{dir}/t.csv"], "--output"),
], ids=["simulate-grid-abc", "simulate-grid", "simulate-seed", "suite-output"])
def test_flag_the_mode_does_not_read_is_usage_error(tmp_path, args, flag, capsys):
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = 1 0 0 0\nsteps = 5\n")
    argv = [a.format(dir=tmp_path) for a in args]
    mode = argv[0]
    with mock.patch("cosrel.suites.run_suite") as suite, \
            mock.patch("cosrel.weyssenhoff.integrate_worldline") as simulate:
        assert main([*argv, "--config", str(cfg), "--json", str(tmp_path / "r.json")]) == 2
    suite.assert_not_called()
    simulate.assert_not_called()
    err = capsys.readouterr().err
    assert err == f"error: {flag} is not read by {mode}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wl.ini"]


def test_readme_flags_name_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (sentence,) = re.findall(r"^Flags: (.*?)\.$", readme, flags=re.M | re.S)
    named = re.findall(r"`(--[a-z-]+)[^`]*`", sentence)
    options = {opt for action in build_parser()._actions for opt in action.option_strings}
    assert sorted(named) == sorted(options - {"-h", "--help"})


@pytest.mark.parametrize("lines", ["c = 0\nu = 0 0 0 0", "c = -1\nu = 1 0 0 0"])
def test_bad_speed_of_light_is_refused(tmp_path, lines, capsys):
    cfg = tmp_path / "wl.ini"
    cfg.write_text(f"[worldline]\n{lines}\nsteps = 5\n")
    out = tmp_path / "t.csv"
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("refused: c must be finite and positive")
    assert not out.exists()


@pytest.mark.parametrize("args", [["--dtau=1e308", "--steps=3"], ["--dtau=1e304", "--steps=100000"]])
def test_overflowing_tau_grid_is_usage_error(tmp_path, args, capsys):
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = 1 0 0 0\n")
    out = tmp_path / "t.csv"
    for mode in _STEP_MODES:
        assert main([*mode, "--config", str(cfg), "--output", str(out), *args]) == 2, mode
        err = capsys.readouterr().err
        assert err.startswith("error: tau grid overflows") and err.count("\n") == 1
        assert not out.exists()


def test_import_loads_no_scipy():
    code = ("import sys, cosrel.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_process_pool():
    """The grid writer imports its worker pool when it uses one, not with the package."""
    code = ("import sys, cosrel.cli; print([m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')])")
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
