"""In-memory call spans around cosrel's public functions, for the benchmark's traced run.

The wrappers live here, not in the library.  They are installed only inside
``with Tracer() as tracer:`` and replace every binding of a wrapped function in
the loaded ``cosrel`` modules, ``from ... import`` bindings included (``ext_d``
and ``wedge`` are bound separately in ``lattice``, ``deformation`` and
``suites``).  Methods are patched on their class.  Leaving the block puts every
original object back.

Everything runs in one thread, so no span ever waits for another: wait time is
0 by construction and is reported as such.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _worldline_steps(args, kwargs, result):
    return len(result.tau) - 1


def _suite_name(args, kwargs):
    return args[0] if args else kwargs["name"]


def _nonzero_exit(result):
    return result != 0


@dataclass(frozen=True)
class Target:
    """One public function whose calls the traced run records.

    ``moves`` is the end-to-end metric and workload the layer should move.
    ``label`` appends an argument to the span name; ``work`` counts the work a
    call did (``work_unit`` names it); ``failed_if`` marks a returned value as a
    failed call.  A raised exception always counts as failed.
    """

    module: str
    attr: str
    moves: str
    label: Optional[Callable] = None
    work: Optional[Callable] = None
    work_unit: Optional[str] = None
    failed_if: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


_FORMS = "wall_s (verify.forms_s) on verify-suites"
_ALGEBRA = "wall_s (verify.algebra_s) on verify-suites"
_VERIFY = "wall_s (verify_s) on verify-suites"
_GRIDFILE = "wall_s (gridfile.write_s, gridfile.read_s) and peak_rss_mb on gridfile-33"

#: The layer -> end-to-end metric -> workload map.  Every workload not named is
#: predicted to show no change.
TARGETS = (
    Target("cosrel.lattice", "Lattice.gradient", _FORMS),
    Target("cosrel.lattice", "ext_d", _FORMS),
    Target("cosrel.lattice", "wedge", _FORMS),
    Target("cosrel.deformation", "GroupField.from_function", _FORMS),
    Target("cosrel.deformation", "nabla_group", _FORMS),
    Target("cosrel.deformation", "dislocation", _FORMS),
    Target("cosrel.deformation", "incompatibility", _FORMS),
    Target("cosrel.deformation", "write_algebra_form", _GRIDFILE, work=_file_bytes, work_unit="B"),
    Target("cosrel.deformation", "read_algebra_form", _GRIDFILE, work=_file_bytes, work_unit="B"),
    Target("cosrel.deformation", "write_group_field", _GRIDFILE, work=_file_bytes, work_unit="B"),
    Target("cosrel.deformation", "read_group_field", _GRIDFILE, work=_file_bytes, work_unit="B"),
    Target("cosrel.kinematics", "prolong", _VERIFY + " (cosserat share)"),
    Target("cosrel.algebra", "exp", _ALGEBRA),
    Target("cosrel.algebra", "bracket", _ALGEBRA),
    Target("cosrel.poincare", "compose", _ALGEBRA),
    Target("cosrel.weyssenhoff", "integrate_worldline",
           "wall_s (worldline_s) on worldline-long; wall_s (verify.weyssenhoff_s) on verify-suites",
           work=_worldline_steps, work_unit="step"),
    Target("cosrel.weyssenhoff", "Trajectory.write_csv", "wall_s (worldline_s) on worldline-long"),
    Target("cosrel.weyssenhoff", "Trajectory.write_json", "wall_s (worldline_s) on worldline-long"),
    Target("cosrel.dynamics", "cosserat_residual", _VERIFY),
    Target("cosrel.dynamics", "total_virtual_work", _VERIFY),
    Target("cosrel.dynamics", "direct_virtual_work", _VERIFY),
    Target("cosrel.dirac", "conservation_report", _VERIFY),
    Target("cosrel.dirac", "make_plane_wave", _VERIFY),
    Target("cosrel.suites", "run_suite", "wall_s on verify-suites, per suite", label=_suite_name),
    Target("cosrel.cli", "main", "root span of every command", failed_if=_nonzero_exit),
)

#: The suites the verify-suites workload runs; ``run_suite`` spans carry their names.
SUITES = ("algebra", "forms", "cosserat", "dirac", "weyssenhoff")


def span_names() -> list[str]:
    """Every span name a traced run can report, in table order."""
    names = []
    for t in TARGETS:
        if t.label:
            names.extend(f"{t.name}.{s}" for s in SUITES)
        else:
            names.append(t.name)
    return names


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "failed", "work")

    def __init__(self, name, start, parent, run):
        self.name, self.start, self.end = name, start, start
        self.parent, self.run = parent, run
        self.failed, self.work = False, 0

    def as_list(self, t0: float) -> list:
        return [self.name, self.start - t0, self.end - t0, self.parent, self.run,
                self.failed, self.work]


class Tracer:
    """Records spans while active; ``run`` tags the spans of one operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.t0 = time.perf_counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = f"{target.name}.{target.label(args, kwargs)}" if target.label else target.name
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), parent, tracer.run)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if target.failed_if is not None and target.failed_if(result):
                span.failed = True
            if target.work is not None:
                span.work = target.work(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, key, new):
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, new)

    def _install(self):
        owners = [importlib.import_module(t.module) for t in TARGETS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cosrel" or n.startswith("cosrel."))]
        for target, owner in zip(TARGETS, owners):
            if "." in target.attr:
                cls_name, method = target.attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    self._patch(cls, method, classmethod(self._wrap(raw.__func__, target)))
                else:
                    self._patch(cls, method, self._wrap(raw, target))
                continue
            original = getattr(owner, target.attr)
            traced = self._wrap(original, target)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)

    def _restore(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def dump(self) -> list:
        return [s.as_list(self.t0) for s in self.spans]


def layer_table(spans: list[Span], runs) -> dict:
    """Per span name: median over the given runs of calls, total, self time, failures, work.

    A span's self time is its duration minus the time its child spans cover.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    per_run = {r: {} for r in runs}
    for i, s in enumerate(spans):
        if s.run not in per_run:
            continue
        row = per_run[s.run].setdefault(s.name, [0, 0.0, 0.0, 0, 0])
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += s.end - s.start - child[i]
        row[3] += s.failed
        row[4] += s.work
    table = {}
    for name in span_names():
        rows = [per_run[r].get(name, [0, 0.0, 0.0, 0, 0]) for r in runs]
        calls, total, self_s, failed, work = (statistics.median(col) for col in zip(*rows))
        table[name] = {"calls": calls, "total_s": total, "self_s": self_s,
                       "failed": failed, "wait_s": 0.0, "work": work}
    return table
