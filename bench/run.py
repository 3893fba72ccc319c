"""cosrel benchmark: one workload in one single-threaded process, BLAS pinned to 1 thread.

Run from the repository root:

    python3 bench/run.py --workload verify-suites --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 1 --seconds 30 --out bench/results/BENCH_1.json

Workloads are defined in ``workloads.py``.  A run builds the seeded inputs,
makes one untimed warm-up pass, then repeats passes until ``--seconds`` have
gone by.  ``setup_s`` is the median time for a fresh interpreter to import
``cosrel.cli``, sampled before and after the passes.  Every call's output is checked; a failed check or an exception
counts as a failed operation.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``wall_s`` is
the sum over the workload's steps of each step's median time.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
BENCHMARK.json, per traced pass (median), and the tracing overhead.  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Full run records, and the span dump of a traced run, are
written to ``.bench_work/`` in the checkout.

``--workload all`` runs every workload with both trace settings for each seed,
each in its own process, and prints every metric with its unit; ``--out``
saves all their records in one file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("verify-suites", "worldline-long", "gridfile-33")
#: timed fresh-interpreter imports per run, half before and half after the passes,
#: so that one slow spell of the machine does not set the whole median
SETUP_SAMPLES = 8


def pin_environment():
    """Pin BLAS to one thread and put the checkout's src/ first on the import path.

    Must run before numpy is imported.  COSREL_CONFIG would override the
    benchmark's --config paths, so it is removed.
    """
    os.environ.update({v: "1" for v in THREAD_VARS})
    os.environ.pop("COSREL_CONFIG", None)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    sys.path.insert(0, SRC)


def record_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(WORK, f"{workload}-seed{seed}-trace{trace}.json")


def setup_times(n: int) -> list:
    """Wall times of n fresh interpreters importing cosrel.cli."""
    times = []
    for _ in range(n):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cosrel.cli"], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
    return times


def _git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except FileNotFoundError:
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment() -> dict:
    import cosrel
    import numpy
    import scipy
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cosrel")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_rev": _git_rev(), "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cosrel": cosrel.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "blas_threads": {v: os.environ[v] for v in THREAD_VARS}}


@contextlib.contextmanager
def quiet_stdout():
    """Send cosrel's own console output to /dev/null, at the file-descriptor level.

    The CLI binds sys.stdout as a default argument at import time, so swapping
    sys.stdout would not catch it.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), 1)
            try:
                yield
            finally:
                sys.stdout.flush()
                os.dup2(saved, 1)
    finally:
        os.close(saved)


def run_pass(workload, times: dict) -> tuple[int, float]:
    """Run every step once; return (failed operations, summed step time)."""
    failed, total = 0, 0.0
    for step in workload.steps:
        t = time.perf_counter()
        try:
            try:
                out = step.run()
            finally:
                elapsed = time.perf_counter() - t
                times.setdefault(step.name, []).append(elapsed)
                total += elapsed
            step.check(out)
        except Exception:  # a failed call or a wrong output: count it and keep measuring
            traceback.print_exc()
            failed += 1
    return failed, total


def layer_metrics(table: dict, untraced: list, traced: list) -> dict:
    """Flatten the per-span table into the per-layer metric names of BENCHMARK.json."""
    from tracing import TARGETS
    units = {t.name: t.work_unit for t in TARGETS}
    values = {}
    for name, row in table.items():
        for key in ("calls", "total_s", "self_s"):
            values[f"{name}.{key}"] = row[key]
        unit = units.get(name)
        if unit == "step":
            values[f"{name}.us_per_step"] = 1e6 * row["total_s"] / row["work"] if row["work"] else 0.0
        elif unit == "B":
            values[f"{name}.bytes"] = row["work"]
            values[f"{name}.MB_per_s"] = row["work"] / row["total_s"] / 1e6 if row["total_s"] else 0.0
    base = statistics.median(untraced)
    values["trace.overhead_s"] = statistics.median(traced) - base
    values["trace.overhead_frac"] = values["trace.overhead_s"] / base
    values["trace.failed_calls"] = sum(row["failed"] for row in table.values())
    return values


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def select_metrics(spec: list, values: dict) -> dict:
    """The metrics a BENCHMARK.json section names, with their units; no more, no fewer."""
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: "
                           f"missing {sorted(set(names) - set(values))}, "
                           f"extra {sorted(set(values) - set(names))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    from tracing import Tracer, layer_table
    from workloads import WORKLOADS
    spec = load_spec()
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    values, setup = {}, []
    if not trace:
        setup_times(1)  # untimed: the first import also compiles bytecode
        setup = setup_times(SETUP_SAMPLES // 2)
    os.makedirs(WORK, exist_ok=True)
    times, untraced, traced = {}, [], []
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        workload = WORKLOADS[name](seed, workdir)
        tracer = Tracer()
        with quiet_stdout():
            failed, _ = run_pass(workload, {})  # warm-up: untimed, but checked and counted
            attempted = len(workload.steps)
            start = last = time.perf_counter()
            # stop where the next pass would end closer to --seconds than this one
            while (time.perf_counter() - start + (time.perf_counter() - last) / 2 < seconds
                   or not untraced or (trace and not traced)):
                last = time.perf_counter()
                if trace and len(traced) < len(untraced):
                    tracer.run = len(traced)
                    with tracer:
                        f, total = run_pass(workload, {})
                    traced.append(total)
                else:
                    f, total = run_pass(workload, times)
                    untraced.append(total)
                failed += f
                attempted += len(workload.steps)
    if not trace:
        setup += setup_times(SETUP_SAMPLES - len(setup))
        values["setup_s"] = statistics.median(setup)
    med = {step: statistics.median(ts) for step, ts in times.items()}
    details = dict(workload.details(med))
    details["failed_frac"] = (failed / attempted, "1")
    if trace:
        table = layer_table(tracer.spans, range(len(traced)))
        values.update(layer_metrics(table, untraced, traced))
    else:
        values["wall_s"] = sum(med.values())
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = select_metrics(spec["per_layer" if trace else "end_to_end"], values)
    correct = failed == 0
    record = {"workload": name, "why": why, "seed": seed, "seconds": seconds,
              "trace": trace, "env": environment(), "params": workload.params,
              "passes": {"untraced": len(untraced), "traced": len(traced)},
              "step_times_s": times,
              "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
              "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if trace:
        record["layers"] = table
        with open(os.path.join(WORK, f"spans-{name}-seed{seed}.json"), "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "run", "failed", "work"],
                       "wait_s": 0.0, "note": "single thread: no span waits on another",
                       "spans": tracer.dump()}, fh)
    with open(record_path(name, seed, trace), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {name} (seed {seed}, trace {trace}): {why}")
    print(f"env {json.dumps(record['env'])}")
    print(f"params {json.dumps(workload.params)}")
    shown = dict(record["details"])
    if trace:
        print_layer_table(table)
        shown.update((k, m) for k, m in metrics.items()
                     if k.rsplit(".", 1)[1] not in ("calls", "total_s", "self_s"))
    else:
        shown.update(metrics)
    for key, m in shown.items():
        print(f"  {key} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def print_layer_table(table: dict):
    from tracing import TARGETS
    moves = {t.name: t.moves for t in TARGETS}
    print(f"  {'span (per traced pass, median)':44s} {'calls':>7s} {'total_s':>10s} "
          f"{'self_s':>10s} {'failed':>6s} {'wait_s':>6s}  should move")
    for name, row in table.items():
        target = name if name in moves else name.rsplit(".", 1)[0]
        print(f"  {name:44s} {row['calls']:7g} {row['total_s']:10.4f} {row['self_s']:10.4f} "
              f"{row['failed']:6g} {row['wait_s']:6g}  {moves[target]}")
    print("  wait_s is 0: everything runs in one thread, so no span waits for another")


def run_all(seeds: list, seconds: float, out: str) -> int:
    """Every workload, traced and untraced, for each seed, each in a fresh process."""
    records, status = [], 0
    for seed in seeds:
        for name in WORKLOAD_NAMES:
            for trace in (0, 1):
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    status = 1
                    print(proc.stdout, end="")
                    print(f"{name} seed {seed} trace {trace}: exit code {proc.returncode}",
                          file=sys.stderr)
                    continue
                with open(record_path(name, seed, trace)) as fh:
                    records.append(json.load(fh))
    print(f"{'workload':16s} {'seed':>6s}  {'metric':34s} value")
    for r in records:
        shown = dict(r["details"], **r["metrics"]) if r["trace"] == 0 else {
            k: r["metrics"][k] for k in ("trace.overhead_s", "trace.overhead_frac")}
        for key, m in shown.items():
            value = f"{m['value']:.6g}" if isinstance(m["value"], float) else m["value"]
            print(f"{r['workload']:16s} {r['seed']:6d}  {key:34s} {value} {m['unit']}")
    if out:
        with open(out, "w") as fh:
            json.dump({"seeds": seeds, "seconds": seconds, "records": records}, fh, indent=1)
            fh.write("\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, nargs="+", required=True,
                        help="input seed; several only with --workload all")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per run (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes (ignored by 'all')")
    parser.add_argument("--out", default=None, help="with 'all': write every run record here")
    args = parser.parse_args(argv)
    if args.workload != "all" and len(args.seed) != 1:
        parser.error("one --seed per workload run")
    if not os.path.isfile(os.path.join(SRC, "cosrel", "__init__.py")):
        print(f"error: no cosrel source at {os.path.join(SRC, 'cosrel')}", file=sys.stderr)
        return 2
    pin_environment()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)
    import cosrel
    if not os.path.abspath(cosrel.__file__).startswith(SRC + os.sep):
        print(f"error: imported cosrel from {cosrel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed[0], args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
