"""Every name the benchmark's tracer wraps still exists in the library, and the
algebra layer's spans see the algebra suite's work.

The tracer patches each name by attribute lookup; without this check a renamed
or removed function shows up only when a traced benchmark run fails, and a span
around a function the suites no longer call reads 0 calls without failing.
"""

import collections
import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

from tracing import TARGETS, Tracer  # noqa: E402


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_bench_target_resolves(target):
    module = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, method = target.attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, target.attr))


def test_algebra_spans_record_the_algebra_suite():
    from cosrel.suites import run_suite
    with Tracer() as tracer:
        reports = run_suite("algebra")
    assert reports[0].passed
    calls = collections.Counter(span.name for span in tracer.spans)
    for name in ("algebra.exp", "algebra.bracket", "poincare.compose"):
        assert calls[name] >= 1, calls
