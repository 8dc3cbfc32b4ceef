"""Self-test of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

Checks the metric catalogue in BENCHMARK.json, the benchmark's own
combinatorics against the library, and that each in-process workload's
traced run matches the layer predictions the workloads were chosen for: the
determinant carries jt_oracle, window_sweep and trail_replay make no
determinant calls, and jt_oracle and window_sweep make no trail calls.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from schurtrails.identities import bijection_audit, schur_of  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench_result(workload, trace, seconds=1):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def test_metric_names_and_units():
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("parts", [(3, 2, 1), (2, 2), (4, 1, 0), (5, 4, 3, 2), (2, 1, 1, 1, 1)])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_own_combinatorics_match_the_library(parts, N):
    poly = schur_of(parts, N)
    assert workloads.schur_terms(parts, N) == poly.n_terms()
    assert workloads.ssyt_count(parts, N) == sum(poly.coeffs.values())


def test_window_objects_is_the_audit_count():
    for parts in ((2, 1), (3, 2, 1), (4, 2, 2, 0)):
        assert workloads.window_objects(parts, 3) == bijection_audit(parts, 3).objects


def test_generators_are_seeded():
    for workload in workloads.WORKLOADS:
        first = [c.label for c in workloads.make_checks(workload, 7)]
        again = [c.label for c in workloads.make_checks(workload, 7)]
        other = [c.label for c in workloads.make_checks(workload, 8)]
        assert first == again
        assert first != other


@pytest.mark.parametrize("workload", ["jt_oracle", "window_sweep", "trail_replay"])
def test_traced_shares_match_predictions(workload):
    spec = benchmark_spec()
    context, result = bench_result(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    for name, metric in metrics.items():
        assert metric["unit"] == next(m["unit"] for m in spec["per_layer"] if m["name"] == name)
    if workload == "jt_oracle":
        assert metrics["polyring.determinant.share"]["value"] >= 0.9
    else:
        assert metrics["polyring.determinant.calls"]["value"] == 0
    if workload in ("jt_oracle", "window_sweep"):
        assert metrics["trails.calls"]["value"] == 0
    else:
        assert metrics["trails.recolour.calls"]["value"] > 0


def test_reference_loop_allocates_nothing_the_collector_tracks():
    import gc

    import refspeed

    gc.disable()
    try:
        before = gc.get_count()[0]
        refspeed.reference_loop()
        allocated = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert allocated <= 1  # the loop's own dict


def test_scaling_to_reference_speed():
    from refspeed import REF_NOMINAL_S, at_reference_speed, child_report, parse_child_report

    assert at_reference_speed(0.5, REF_NOMINAL_S, REF_NOMINAL_S) == pytest.approx(0.5)
    assert at_reference_speed(0.5, 2 * REF_NOMINAL_S, 2 * REF_NOMINAL_S) == pytest.approx(0.25)
    report, rest = parse_child_report("before\n" + child_report(mark=1) + "\nafter")
    assert rest == "before\nafter"
    assert report["mark"] == 1 and 0 < report["ref_s"] < report["ref_cost_s"]


def test_untraced_run_reports_end_to_end_metrics():
    spec = benchmark_spec()
    context, result = bench_result("trail_replay", trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert context["samples_beyond_tail"] >= 10
    assert context["raw_wall_s"] > 0 and context["ref_median_s"] > 0
