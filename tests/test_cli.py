import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import cosrel
from cosrel import suites, weyssenhoff
from cosrel.cli import _CONFIG_KEYS, build_parser, main
from cosrel.lattice import Lattice
from cosrel.minkowski import ETA

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import WorldlineLong, bounded_element  # noqa: E402


def _run_python(*args, env=None):
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


def test_simulation_writes_trajectory_and_summary(tmp_path, capsys):
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
    payload = {"g": [1.5, 0.0, 0.0, 0.0], "drift_summary": drift,
               "run": {"steps": 40, "dtau": 0.01, "solver_tol": 1e-3},
               "regime": {"mu0_defined": True, "g_square": 2.25}}
    summary = (tmp_path / "traj.csv.json").read_text()
    assert summary == json.dumps(payload, indent=1, sort_keys=True) + "\n"
    assert "records" not in json.loads(summary)
    assert drift["u_norm"] <= 1e-12
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"drift summary: {drift}", "regime: {'mu0_defined': True, 'g_square': 2.25}"]


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


def _runaway_config(tmp_path, steps):
    """weyssenhoff.05's spacelike-momentum element: u^0 grows to 6e6 over 2000 steps."""
    el = suites._element(suites._element_draws(np.random.default_rng(11)))
    s = [(ETA @ el.s)[m, n] for m, n in weyssenhoff.SPIN_COMPONENTS]
    u, g, s = (" ".join(map(repr, np.ravel(a).tolist())) for a in (el.u, el.g, s))
    cfg = tmp_path / "wl.ini"
    cfg.write_text(f"[worldline]\nu = {u}\ng = {g}\ns = {s}\nsteps = {steps}\ndtau = 0.01\n")
    return str(cfg)


def test_runaway_worldline_exits_one(tmp_path, capsys):
    assert main(["--simulate", "weyssenhoff-worldline", "--config", _runaway_config(tmp_path, 2000),
                 "--output", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: spin closure unsolvable: residual ")


def test_last_state_above_the_closure_gate_exits_one(tmp_path, capsys):
    """State 641 of this run is the first above its gate: as the last state it fails too."""
    out = tmp_path / "t.csv"
    argv = ["--simulate", "weyssenhoff-worldline", "--output", str(out), "--config"]
    assert main(argv + [_runaway_config(tmp_path, 640)]) == 0
    out.unlink()
    Path(f"{out}.json").unlink()
    capsys.readouterr()
    assert main(argv + [_runaway_config(tmp_path, 641)]) == 1
    assert capsys.readouterr().err == "error: spin closure unsolvable: residual 3.281e-03\n"
    assert not out.exists() and not Path(f"{out}.json").exists()


def _simulate(tmp_path, monkeypatch, cpus, steps, out):
    """Run the CLI on a bounded element with `cpus` CPUs; return its trajectory and
    whether a forked writer took its blocks."""
    monkeypatch.setattr(weyssenhoff, "_cpus", lambda: cpus)
    el = bounded_element(np.random.default_rng(4))
    cfg = tmp_path / "bounded.ini"
    u, g, s = (" ".join(map(repr, el[key].tolist())) for key in ("u", "g", "s"))
    cfg.write_text(f"[worldline]\nu = {u}\ng = {g}\ns = {s}\ndtau = 0.005\n")
    made = []
    integrate = weyssenhoff.integrate_worldline

    def keep(*args, **kwargs):
        made.append((integrate(*args, **kwargs), kwargs["on_block"] is not None))
        return made[-1][0]

    with mock.patch.object(weyssenhoff, "integrate_worldline", keep):
        assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                     "--steps", str(steps), "--output", str(out)]) == 0
    (run,) = made
    return run


@pytest.mark.parametrize("steps", [0, 1, 255, 256, 257, 500])
def test_forked_csv_equals_the_in_process_csv(tmp_path, monkeypatch, steps):
    """The forked writer's blocks meet the loop's on both sides of a block boundary:
    its table is the in-process table and Trajectory.write_csv's, byte for byte."""
    forked, one_cpu, ref = tmp_path / "forked.csv", tmp_path / "one.csv", tmp_path / "ref.csv"
    traj, writer = _simulate(tmp_path, monkeypatch, 2, steps, forked)
    assert writer
    traj.write_csv(ref)
    _, writer = _simulate(tmp_path, monkeypatch, 1, steps, one_cpu)
    assert not writer
    assert forked.read_bytes() == one_cpu.read_bytes() == ref.read_bytes()
    assert len(forked.read_bytes().splitlines()) == steps + 2
    assert (tmp_path / "forked.csv.json").read_bytes() == (tmp_path / "one.csv.json").read_bytes()


def test_worldline_long_files_are_pinned(tmp_path, monkeypatch):
    """The benchmark's worldline-long run at seed 0 writes the bytes the in-process
    writer wrote before the CSV was formatted in a forked process."""
    monkeypatch.setattr(weyssenhoff, "_cpus", lambda: 2)
    run = WorldlineLong(0, str(tmp_path))
    assert run.steps[0].run() == 0
    digests = [hashlib.sha256(Path(path).read_bytes()).hexdigest()
               for path in (run.csv, run.csv + ".json")]
    assert digests == ["4b60f40d70f0a5f957d61af7cabce4c84ac61ce3b59205a0e15717d3a8155510",
                       "e473c06f7c0c973588b7a693510a33dd3532b182a37baedac5dde06dc5a2f32e"]


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("old", [None, "old,table\r\n"], ids=["no-file", "existing-file"])
@pytest.mark.parametrize("steps", [2000, 641], ids=["mid-run", "last-state"])
def test_failed_run_leaves_the_output_as_it_was(tmp_path, monkeypatch, capsys, steps, old):
    """State 641 is the first above its gate, mid-run or as the last state (where the
    forked writer has already taken the block that holds it): no byte reaches --output
    or the summary, and the writer is reaped."""
    monkeypatch.setattr(weyssenhoff, "_cpus", lambda: 2)
    out = tmp_path / "t.csv"
    if old is not None:
        out.write_bytes(old.encode())
    assert main(["--simulate", "weyssenhoff-worldline", "--config",
                 _runaway_config(tmp_path, steps), "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: spin closure unsolvable: residual 3.281e-03\n"
    assert (out.read_bytes() if out.exists() else None) == (old and old.encode())
    assert not Path(f"{out}.json").exists()
    _assert_no_child()


def test_full_device_is_one_error_line(tmp_path, monkeypatch, capsys):
    """The writer's fault reaches the CLI as the OSError of an in-process write: exit 2."""
    monkeypatch.setattr(weyssenhoff, "_cpus", lambda: 2)
    summary = tmp_path / "s.json"
    assert main(["--simulate", "weyssenhoff-worldline", "--config", _runaway_config(tmp_path, 300),
                 "--output", "/dev/full", "--json", str(summary)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert captured.out == "" and not summary.exists()
    _assert_no_child()


def test_writer_that_dies_is_one_error_line(tmp_path, monkeypatch, capsys):
    """A writer that ends without a report fails the run with exit 2; the run's blocks
    are dropped once nothing reads them, and the existing output stays."""
    monkeypatch.setattr(weyssenhoff, "_cpus", lambda: 2)
    monkeypatch.setattr(weyssenhoff, "_csv_process", lambda *args: os._exit(3))
    out = tmp_path / "t.csv"
    out.write_text("old\n")
    assert main(["--simulate", "weyssenhoff-worldline", "--config", _runaway_config(tmp_path, 600),
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: the CSV writer exited with status 3 before "
                                       f"writing {out}\n")
    assert out.read_text() == "old\n" and not Path(f"{out}.json").exists()
    _assert_no_child()


def test_interrupted_run_leaves_no_process(tmp_path, monkeypatch):
    monkeypatch.setattr(weyssenhoff, "_cpus", lambda: 2)
    rate, calls = weyssenhoff._rate, []

    def interrupted(*args):
        calls.append(None)
        if len(calls) == 4 * 400:
            raise KeyboardInterrupt
        return rate(*args)

    monkeypatch.setattr(weyssenhoff, "_rate", interrupted)
    out = tmp_path / "t.csv"
    with pytest.raises(KeyboardInterrupt):
        main(["--simulate", "weyssenhoff-worldline", "--config", _runaway_config(tmp_path, 600),
              "--output", str(out)])
    assert not out.exists()
    _assert_no_child()


def test_raising_suite_writes_the_full_report_and_exits_one(tmp_path, capsys):
    out = tmp_path / "rep.json"
    closure = weyssenhoff._closure
    with mock.patch.object(weyssenhoff, "_closure", lambda s, rhs: [1.01 * a for a in closure(s, rhs)]):
        assert main(["--suite", "weyssenhoff", "--json", str(out)]) == 1
    (report,) = json.loads(out.read_text())["reports"]
    assert report["passed"] is False
    assert [c["id"] for c in report["checks"]] == [
        "weyssenhoff.01-trace-identity", "weyssenhoff.02-antisymmetric-part",
        "weyssenhoff.03-split-rebuild", "weyssenhoff.04-aligned-momentum-is-inertial",
        "weyssenhoff.05-drift-order"]
    rebuild, drift = [c for c in report["checks"] if not c["passed"]]
    assert (rebuild["id"], drift["id"]) == ("weyssenhoff.03-split-rebuild",
                                            "weyssenhoff.05-drift-order")
    # .03's solves are ungated and read the 1% as their rebuild error; .05's worldline raises
    assert rebuild["value"] > 1e-3 and "extra" not in rebuild
    assert math.isnan(drift["value"])
    assert drift["extra"]["error"].startswith("ClosureError: spin closure unsolvable")
    out = capsys.readouterr().out
    assert "suite weyssenhoff: FAIL" in out and out.count("[FAIL]") == 2


def test_unknown_suite_is_usage_error(capsys):
    assert main(["--suite", "bogus"]) == 2
    assert capsys.readouterr().err == ("error: unknown suite 'bogus'; choose from ('algebra', "
                                       "'forms', 'cosserat', 'dirac', 'weyssenhoff', 'all')\n")


def test_only_a_suite_run_imports_the_suites(tmp_path):
    # compiling a module costs a run resident memory, so the package loads none, the CLI
    # and a simulation load only what they call, and a suite run loads the rest
    cli_modules = ["cosrel", "cosrel.cli", "cosrel.minkowski", "cosrel.weyssenhoff"]
    code = ("import sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'cosrel')\n"
            "import cosrel\n"
            "assert loaded() == ['cosrel'], loaded()\n"
            "from cosrel.cli import main\n"
            f"assert loaded() == {cli_modules!r}, loaded()\n"
            f"main(['--simulate', 'weyssenhoff-worldline', '--config', {str(tmp_path / 'wl.ini')!r}, "
            f"'--steps', '5', '--output', {str(tmp_path / 't.csv')!r}])\n"
            f"assert loaded() == {cli_modules!r}, loaded()\n"
            f"main(['--suite', 'dirac', '--json', {str(tmp_path / 'r.json')!r}])\n"
            "assert 'cosrel.suites' in sys.modules\n")
    (tmp_path / "wl.ini").write_text("[worldline]\nu = 1 0 0 0\n")
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr


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


def test_config_path_comes_from_the_flag_only(tmp_path):
    """No environment variable stands in for --config."""
    good = tmp_path / "good.ini"
    good.write_text("[worldline]\nu = 1 0 0 0\nrho0 = 1.0\nsteps = 8\ndtau = 0.01\n")
    out = tmp_path / "t.csv"
    proc = _run(["--simulate", "weyssenhoff-worldline",
                 "--config", str(tmp_path / "missing.ini"), "--output", str(out)],
                env={"COSREL_CONFIG": str(good)})
    assert proc.returncode == 2
    assert proc.stderr == f"error: config file not readable: {tmp_path / 'missing.ini'}\n"
    assert not out.exists()


def test_grid_flag_parses(tmp_path):
    # forms suite at smaller grids to keep this quick
    out = tmp_path / "rep.json"
    assert main(["--suite", "forms", "--grid", "9,17", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    checks = {c["id"]: c for c in payload["reports"][0]["checks"]}
    assert checks["forms.03-dislocation-order-p2"]["extra"]["grid"] == [9, 17]


def test_report_says_what_ran(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["--suite", "weyssenhoff", "--grid", "5,9", "--steps", "10",
                 "--json", str(out)]) == 0
    run = json.loads(out.read_text())["run"]
    assert run == {"options": {"grids": [5, 9], "steps": 10, "dtau": suites.DEFAULT_DTAU},
                   "versions": {"cosrel": cosrel.__version__, "python": sys.version.split()[0],
                                "numpy": np.__version__}}


@pytest.mark.parametrize("grid", ["17", "a,b", "2,5", "9,17,33", "17.5,33", "9,9", "17,9"])
def test_bad_grid_flag_is_usage_error(grid, capsys):
    assert main(["--suite", "forms", "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --grid") and err.count("\n") == 1


@pytest.mark.parametrize("grids", ["17", "x 33", "2, 5", "9, 17, 33", "17, 9", "9, 17"])
def test_bad_config_grids_are_usage_error(tmp_path, grids, capsys):
    """--grid is the one route to the grid sizes: [forms] grids, at any value, is unread."""
    cfg = tmp_path / "suite.ini"
    cfg.write_text(f"[forms]\ngrids = {grids}\n")
    assert main(["--suite", "forms", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: [forms] grids is not read by any mode\n"


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
    """The closure gate is the constant weyssenhoff._SOLVER_TOL and there is no drift gate:
    a config that sets either, to any value, is refused as an unread key."""
    cfg = tmp_path / "wl.ini"
    cfg.write_text(f"[worldline]\nu = 1 0 0 0\nsteps = 5\n{line}\n")
    out = tmp_path / "t.csv"
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [worldline] {line.split()[0]} is not read by any mode\n"
    assert not out.exists()


@pytest.mark.parametrize("key, lines, need", [
    ("x", "x = 0 0 0\nu = 1 0 0 0", "needs"),
    ("g", "u = 1 0 0 0\ng = 1 0 0", "needs"),
    ("rho0", "u = 1 0 0 0\nrho0 = abc", "needs"),
    ("c", "c = abc\nu = 1 0 0 0", "needs"),
    ("u", "rho0 = 1.0", "needs"),
    ("s", "u = 1 0 0 0\ns = 0 0 0", "needs"),
    ("s", "u = 1 0 0 0\ns = 0 0 0 0.5 0 0 0", "needs"),
    ("projection", "u = 1 0 0 0\nprojection = on", "is not read by any mode"),
    ("dtua", "u = 1 0 0 0\ndtua = 0.5", "is not read by any mode"),
], ids=["x-3", "g-3", "rho0-abc", "c-abc", "u-missing", "s-3", "s-7",
        "projection-unread", "dtau-typo"])
def test_unusable_worldline_value_is_refused_by_key(tmp_path, key, lines, need, capsys):
    cfg = tmp_path / "wl.ini"
    cfg.write_text(f"[worldline]\n{lines}\n")
    out = tmp_path / "t.csv"
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [worldline] {key} {need}")
    assert err.count("\n") == 1
    assert not out.exists() and not (tmp_path / "t.csv.json").exists()


@pytest.mark.parametrize("text, where", [
    ("[forms]\ngrid = 5 9\n", "[forms] grid"),
    ("[worldline]\nu = 1 0 0 0\nsteps = 5\ndtua = 0.5\n", "[worldline] dtua"),
    ("[worldline]\nu = 1 0 0 0\n[grids]\nforms = 5 9\n", "[grids] forms"),
    ("[worldline]\nu = 1 0 0 0\n[Forms]\n", "[Forms]"),
    ("[DEFAULT]\nsteps = 5\n[worldline]\nu = 1 0 0 0\n", "[DEFAULT] steps"),
], ids=["forms-key", "worldline-key", "section-with-key", "empty-section", "default-section"])
@pytest.mark.parametrize("mode", _STEP_MODES, ids=["suite", "simulate"])
def test_config_entry_no_mode_reads_is_usage_error(tmp_path, mode, text, where, capsys):
    """Under either mode, a section or key that no mode reads is exit 2 before anything runs."""
    cfg = tmp_path / "wl.ini"
    cfg.write_text(text)
    out = tmp_path / "t.csv"
    with mock.patch("cosrel.weyssenhoff.integrate_worldline") as simulate:
        assert main([*mode, "--config", str(cfg), "--output", str(out)]) == 2
    simulate.assert_not_called()
    err = capsys.readouterr().err
    assert err == f"error: {where} is not read by any mode\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wl.ini"]


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


def _symlink(d):
    (d / "t.csv").write_text("old\n")
    (d / "s.json").symlink_to(d / "t.csv")


@pytest.mark.parametrize("make, args", [
    (lambda d: None, ["--json", "{dir}/t.csv"]),
    (lambda d: None, ["--json", "{dir}/./sub/../t.csv"]),
    (_symlink, ["--json", "{dir}/s.json"]),
    (lambda d: (d / "t.csv.json").symlink_to(d / "t.csv"), []),
    (lambda d: ((d / "t.csv").write_text("old\n"), (d / "h.json").hardlink_to(d / "t.csv")),
     ["--json", "{dir}/h.json"]),
], ids=["two-flags", "same-real-path", "json-symlink", "default-summary-symlink", "hard-link"])
def test_output_and_summary_naming_one_file_is_usage_error(tmp_path, make, args, capsys):
    """The summary would overwrite the trajectory: refused before anything is written."""
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = 1 0 0 0\nsteps = 5\n")
    (tmp_path / "sub").mkdir()
    make(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    argv = ["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
            "--output", str(tmp_path / "t.csv"), *[a.format(dir=tmp_path) for a in args]]
    with mock.patch("cosrel.weyssenhoff.integrate_worldline") as run:
        assert main(argv) == 2
    run.assert_not_called()
    err = capsys.readouterr().err
    assert err.startswith(f"error: --output {tmp_path / 't.csv'} and the summary path ")
    assert err.endswith(" name one file\n") and err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


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


def test_readme_config_keys_name_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (sentence,) = re.findall(r"^The keys any mode reads are (.*?)\.\s", readme, flags=re.M | re.S)
    named = {}
    for name in re.findall(r"`([^`]+)`", sentence):
        if name.startswith("["):
            keys = named.setdefault(name.strip("[]"), [])
        else:
            keys.append(name)
    assert named == {section: list(keys) for section, keys in _CONFIG_KEYS.items()}


def test_readme_worldline_config_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.M | re.S)
    cfg = tmp_path / "worldline.ini"
    cfg.write_text(block)
    out = tmp_path / "traj.csv"
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(out)]) == 0, capsys.readouterr().err
    assert out.exists() and Path(f"{out}.json").exists()


def test_spin_defect_the_closure_would_invert_is_refused(tmp_path, capsys):
    """A Frenkel defect of 0.9e-9 on a spin of |s| = 5e-4 passes the absolute 1e-9 bound but
    not _RANK_TOL |s| / 2.1 = 2.38e-10.  Without that bound this run exited 1 with
    `spin closure unsolvable: residual 8.638e+06`."""
    el = suites._element(suites._element_draws(np.random.default_rng(1)))
    s_low = ETA @ el.s
    k = 5e-4 / np.sqrt(0.5 * np.einsum("mn,mn->", s_low, ETA @ s_low @ ETA))
    rho0 = weyssenhoff.split_momentum(el.g, el.u).rho0
    g = rho0 * (ETA @ el.u) + k * (el.g - rho0 * (ETA @ el.u))
    raw = np.random.default_rng(101).standard_normal((4, 4))
    noise = ETA @ (raw - raw.T)
    s_low = ETA @ (k * el.s + 0.9e-9 * noise / np.abs(noise @ el.u).max())
    s = [s_low[m, n] for m, n in weyssenhoff.SPIN_COMPONENTS]
    u, g, s = (" ".join(map(repr, np.ravel(a).tolist())) for a in (el.u, g, s))
    cfg = tmp_path / "wl.ini"
    cfg.write_text(f"[worldline]\nu = {u}\ng = {g}\ns = {s}\nsteps = 1000\ndtau = 1e-6\n")
    out = tmp_path / "t.csv"
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("refused: Frenkel defect 9.000e-10 above 2.381e-10, ")
    assert err[1].startswith("residuals: ") and len(err) == 2
    assert not out.exists()


def test_spin_noise_validate_accepts_runs(tmp_path, capsys):
    """Six lowered spin components off by ~1e-11 (a Frenkel defect of 1.5e-11, which
    validate accepts): the run integrates instead of blowing up in the closure."""
    el = suites._element(suites._element_draws(np.random.default_rng(1)))
    s = [(ETA @ el.s)[m, n] for m, n in weyssenhoff.SPIN_COMPONENTS]
    s += 1e-11 * np.random.default_rng(5).standard_normal(6)
    u, g, s = (" ".join(map(repr, np.ravel(a).tolist())) for a in (el.u, el.g, s))
    cfg = tmp_path / "wl.ini"
    cfg.write_text(f"[worldline]\nu = {u}\ng = {g}\ns = {s}\nsteps = 2000\ndtau = 0.005\n")
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(tmp_path / "t.csv")]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("value", ["1", "1.0"])
def test_speed_of_light_one_runs(tmp_path, value):
    """The worldline works in natural units; a config may still write c = 1."""
    cfg = tmp_path / "wl.ini"
    cfg.write_text(f"[worldline]\nc = {value}\nu = 1 0 0 0\nsteps = 5\n")
    out = tmp_path / "t.csv"
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 7


@pytest.mark.parametrize("lines", ["c = 0\nu = 0 0 0 0", "c = -1\nu = 1 0 0 0",
                                   "c = 2\nu = 1 0 0 0", "c = nan\nu = 1 0 0 0",
                                   "c = inf\nu = 1 0 0 0", "c = abc\nu = 1 0 0 0"])
def test_bad_speed_of_light_is_refused(tmp_path, lines, capsys):
    """Any c but 1 is a usage error in the settings phase: one line naming the key."""
    cfg = tmp_path / "wl.ini"
    cfg.write_text(f"[worldline]\n{lines}\nsteps = 5\n")
    out = tmp_path / "t.csv"
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [worldline] c ") and err.count("\n") == 1
    value = lines.split("\n")[0].split(" = ")[1]
    if value != "abc":
        assert err == ("error: [worldline] c must be 1 (the worldline works in natural units), "
                       f"got '{value}'\n")
    assert not out.exists() and not (tmp_path / "t.csv.json").exists()


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


def test_unallocatable_tau_grid_is_usage_error(tmp_path, capsys):
    """A grid of 10^13 steps (73 TiB) cannot be allocated: refused in one line, in either mode."""
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = 1 0 0 0\n")
    out = tmp_path / "t.csv"
    runs = [["--suite", "weyssenhoff"],
            ["--simulate", "weyssenhoff-worldline", "--config", str(cfg), "--output", str(out)]]
    for argv in runs:
        assert main([*argv, "--steps", "10000000000000"]) == 2, argv
        assert capsys.readouterr().err == ("error: tau grid of 10000000000000 steps "
                                           "does not fit in memory\n")
    assert not out.exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_unallocatable_forms_fields_fail_their_checks(tmp_path, cpus):
    """The fine fields of a 10^6-point grid (7 TiB and more) cannot be allocated: each check
    that reads one fails with the MemoryError, the others pass, and the report is whole."""
    out = tmp_path / "rep.json"
    code = (f"import sys; from cosrel import cli, weyssenhoff; weyssenhoff._cpus = lambda: {cpus}; "
            f"sys.exit(cli.main(['--suite', 'forms', '--grid', '3,1000000', "
            f"'--json', {str(out)!r}]))")
    proc = _run_python("-c", code)
    assert proc.returncode == 1 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == "suite forms: FAIL (seed 0)" and len(lines) == 9
    checks = json.loads(out.read_text())["reports"][0]["checks"]
    failed = {c["id"]: c["extra"]["error"] for c in checks if not c["passed"]}
    assert sorted(failed) == ["forms.03-dislocation-order-p2", "forms.03-dislocation-order-p3",
                              "forms.04-dislocation-norm-p2", "forms.04-dislocation-norm-p3",
                              "forms.05-bianchi-order"]
    assert all(error.startswith("MemoryError: Unable to allocate") for error in failed.values())


def test_memory_error_of_a_simulation_exits_one(tmp_path, monkeypatch, capsys):
    def integrate(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 PiB")

    monkeypatch.setattr(weyssenhoff, "integrate_worldline", integrate)
    cfg = tmp_path / "wl.ini"
    cfg.write_text("[worldline]\nu = 1 0 0 0\n")
    out = tmp_path / "t.csv"
    assert main(["--simulate", "weyssenhoff-worldline", "--config", str(cfg),
                 "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory: Unable to allocate 1.00 PiB\n"
    assert captured.out == "" and not out.exists()


def test_import_loads_no_scipy():
    code = ("import sys, cosrel.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_process_pool():
    """The forms suite imports its worker pool when it uses one, not with the package."""
    code = ("import sys, cosrel.cli; print([m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')])")
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_forms_suite_prints_the_same_bytes_pooled_and_in_process():
    """A line buffered before the workers fork is printed once, and the report lines
    are those of an in-process run."""
    code = ("import sys; from cosrel import cli, weyssenhoff; weyssenhoff._cpus = lambda: {}; "
            "print('before the suite'); "
            "code = cli.main(['--suite', 'forms', '--grid', '9,17']); "
            "import multiprocessing; assert multiprocessing.active_children() == []; "
            "sys.exit(code)")
    runs = {cpus: _run_python("-c", code.format(cpus)) for cpus in (1, 2)}
    for proc in runs.values():
        assert proc.returncode == 0, proc.stderr
    assert runs[2].stdout == runs[1].stdout
    lines = runs[2].stdout.splitlines()
    assert lines[:2] == ["before the suite", "suite forms: PASS (seed 0)"]
    assert len(lines) == 10 and len(set(lines)) == len(lines)


def test_vanished_refinement_error_fails_its_check(tmp_path, monkeypatch, capsys):
    """With first-order boundary stencils, cosserat.04's fine-grid mismatch is exactly
    0.0: an order that cannot be measured is a failed check, and the report is whole."""
    def gradient(self, data, axis):
        return np.gradient(data, self.spacing[axis], axis=axis, edge_order=1)

    monkeypatch.setattr(Lattice, "gradient", gradient)
    out = tmp_path / "rep.json"
    assert main(["--suite", "cosserat", "--json", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "suite cosserat: FAIL (seed 0)" and len(lines) == 5
    checks = {c["id"]: c for c in json.loads(out.read_text())["reports"][0]["checks"]}
    assert len(checks) == 4
    failed = checks.pop("cosserat.04-integration-by-parts")
    assert np.isnan(failed["value"]) and failed["passed"] is False
    assert failed["extra"]["mismatch"] == 0.0
    assert all(c["passed"] for c in checks.values())
