"""Self-tests of the benchmark harness, kept out of the repository's test paths.

    python3 -m pytest bench -q

The end-to-end cases run every workload once per trace setting and take a
couple of minutes.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from cosrel import cli, deformation, lattice, suites  # noqa: E402
from tracing import TARGETS, Span, Tracer, layer_table, span_names  # noqa: E402

WORKLOADS = ("verify-suites", "worldline-long", "gridfile-33")


def _counts(tracer: Tracer) -> collections.Counter:
    return collections.Counter(s.name for s in tracer.spans)


def _p3_deformation() -> deformation.AlgebraForm:
    lat = lattice.Lattice((5, 5, 5), (0.25, 0.25, 0.25))
    return deformation.AlgebraForm.zeros(lat, 1)


def test_dislocation_traces_two_ext_d_and_two_wedge():
    E = _p3_deformation()
    with Tracer() as tracer:
        deformation.dislocation(E)
    counts = _counts(tracer)
    assert (counts["lattice.ext_d"], counts["lattice.wedge"]) == (2, 2)
    assert counts["deformation.dislocation"] == 1


def test_incompatibility_traces_two_ext_d_and_four_wedge():
    E = _p3_deformation()
    Om = deformation.dislocation(E)
    with Tracer() as tracer:
        deformation.incompatibility(Om, E)
    counts = _counts(tracer)
    assert (counts["lattice.ext_d"], counts["lattice.wedge"]) == (2, 4)


def _bindings() -> dict:
    """Every attribute of every loaded cosrel module and of the classes they define."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if not (name == "cosrel" or name.startswith("cosrel.")):
            continue
        for key, value in vars(module).items():
            snap[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    snap[(name, key, attr)] = member
    return snap


def test_every_target_is_wrapped_and_restored(tmp_path):
    before = _bindings()
    original_ext_d = lattice.ext_d
    with Tracer() as tracer:
        during = _bindings()
        assert cli.main(["--suite", "dirac", "--json", str(tmp_path / "r.json")]) == 0
        deformation.dislocation(_p3_deformation())
    changed = {k for k in before if during[k] is not before[k]}
    for target in TARGETS:
        key = (target.module,) + tuple(target.attr.split("."))
        assert key in changed, target.name
    # the from-import bindings of ext_d and wedge are wrapped too
    for module in ("cosrel.lattice", "cosrel.deformation", "cosrel.suites"):
        assert {(module, "ext_d"), (module, "wedge")} <= changed
    assert _counts(tracer)["cli.main"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert lattice.ext_d is original_ext_d and suites.ext_d is original_ext_d


def test_self_time_subtracts_children():
    parent, child = Span("cli.main", 0.0, -1, 0), Span("suites.run_suite.forms", 2.0, 0, 0)
    parent.end, child.end = 10.0, 5.0
    row = layer_table([parent, child], [0])
    assert (row["cli.main"]["total_s"], row["cli.main"]["self_s"]) == (10.0, 7.0)
    assert row["suites.run_suite.forms"]["self_s"] == 3.0
    assert set(row) == set(span_names())


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "gridfile-33", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
