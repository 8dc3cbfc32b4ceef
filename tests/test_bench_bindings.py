"""The benchmark's bindings into schurtrails still resolve.

The tracer wraps functions by (module, attribute) and the workloads import
names from schurtrails; a renamed or deleted name would otherwise surface
only in a traced benchmark run.  A traced CLI call installs the tracer
right after importing schurtrails.cli, before any command runs, so every
traced module must be registered by then.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

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


@pytest.mark.parametrize(
    "argv, boundary",
    [
        (["verify", "kirillov", "--lambda", "2,2", "--vars", "3"], "identities.verify"),
        (["catalan", "--points", "8"], "trails.count_noncrossing_matchings"),
        (["render", "--vars", "2"], "svg.render_svg"),
        (["orbit", "--lambda", "2", "--sigma", "1", "--offset", "-1", "--rlist", "1", "--vars", "2"],
         "identities.orbit"),
    ],
    ids=["verify", "catalan", "render", "orbit"],
)
def test_traced_cli_call_runs(argv, boundary):
    env = dict(os.environ, BENCH_TRACE="1")
    env.pop("BENCH_REF", None)
    result = subprocess.run(
        [sys.executable, os.path.join(BENCH, "cli_entry.py")] + argv,
        input='{"blue": ["(-1,1):EN"], "green": ["(0,1):EEN"]}',
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    traces = [line for line in result.stderr.splitlines() if line.startswith("bench-trace ")]
    assert len(traces) == 1
    # the command's call went through the wrapper the tracer installed
    assert json.loads(traces[0][len("bench-trace "):])["snapshot"]["calls"][boundary] == 1
