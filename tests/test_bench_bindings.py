"""The benchmark's bindings into schurtrails still resolve.

The tracer wraps functions by (module, attribute) and the workloads import
names from schurtrails; a renamed or deleted name would otherwise surface
only in a traced benchmark run.
"""

import importlib
import importlib.util
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_imports_resolve():
    load_bench_module("workloads")


def target_id(target):
    if target.cls is None:
        return "%s.%s" % (target.module, target.attr)
    return "%s.%s.%s" % (target.module, target.cls, target.attr[0])


@pytest.mark.parametrize("target", load_bench_module("tracer").TARGETS, ids=target_id)
def test_tracer_target_resolves(target):
    home = importlib.import_module(target.module)
    if target.cls is not None:
        owner = getattr(home, target.cls)
        for attr in target.attr:
            assert callable(owner.__dict__[attr])
    else:
        assert callable(getattr(home, target.attr))
