"""Every name the benchmark's tracer wraps still exists in the library.

The tracer patches each name by attribute lookup; without this check a renamed
or removed function shows up only when a traced benchmark run fails.
"""

import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

from tracing import TARGETS  # noqa: E402


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_bench_target_resolves(target):
    module = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, method = target.attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, target.attr))
