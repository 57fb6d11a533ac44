"""Tests of the benchmark itself: the checks reject perturbed answers, the
tracer leaves the program as it found it, and the seed changes only what it
should.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Query  # noqa: E402

L0, O0 = 3.1, 4.7


def answer_of(query):
    return workloads.parse_answer(query, workloads.run_query(query))


@pytest.fixture(scope="module")
def analyze():
    query = Query("analyze", "icon", 4, L0, O0)
    return query, answer_of(query)


@pytest.fixture(scope="module")
def curve():
    query = Query("curve", "lulesh", 8, L0, O0)
    return query, answer_of(query)


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "icon-4.trace"
    query = Query("trace_validate", "icon", 4, L0, O0, max_delta=90.0, trace_path=str(path))
    workloads.write_trace(query)
    return query, answer_of(query)


def test_correct_answers_pass(analyze, curve, trace):
    checker = checks.Checker()
    for query, answer in (analyze, curve, trace):
        assert checker(query, answer) == []


@pytest.mark.parametrize("key, change", [
    ("runtime_us", lambda v: v * (1 + 1e-6)),
    ("lambda_L", lambda v: v + 1),
    ("rho_L", lambda v: v * 1.01),
    ("tolerance_2pct_us", lambda v: v * 2),
    ("tolerance_1pct_us", lambda v: v * 0.999),
    ("events", lambda v: v + 1),
])
def test_analyze_check_rejects_perturbed_answer(analyze, key, change):
    query, answer = analyze
    bad = dict(answer, **{key: change(answer[key])})
    assert checks.Checker()(query, bad)


@pytest.mark.parametrize("key, change", [
    ("lp_solves", lambda v: 1),
    ("runtime_us", lambda v: [v[0]] + [v[1] * (1 + 1e-6)] + v[2:]),
    ("lambda_L", lambda v: [v[0] * 10 + 100] + v[1:]),
    ("L_us", lambda v: v[:-1]),
    ("critical_latencies_us", lambda v: [2000.0]),
])
def test_curve_check_rejects_perturbed_answer(curve, key, change):
    query, answer = curve
    bad = dict(answer, **{key: change(list(answer[key]) if isinstance(answer[key], list)
                                      else answer[key])})
    assert checks.Checker()(query, bad)


def test_trace_check_rejects_perturbed_answer(trace):
    query, (sweep, graph) = trace
    checker = checks.Checker()
    wrong_prediction = dataclasses.replace(sweep, predicted=sweep.predicted * (1 + 1e-6))
    assert checker(query, (wrong_prediction, graph))
    wrong_slope = dataclasses.replace(sweep, latency_sensitivity=sweep.latency_sensitivity + 1)
    assert checker(query, (wrong_slope, graph))
    inaccurate = dataclasses.replace(sweep, measured=sweep.measured * 1.05)
    assert any("RRMSE" in problem for problem in checker(query, (inaccurate, graph)))
    wrong_tolerance = copy.deepcopy(sweep)
    wrong_tolerance.tolerance.tolerances[0.05] = L0 - 1
    assert checker(query, (wrong_tolerance, graph))


def test_tracer_counts_and_restores(analyze):
    from repro import cli
    from repro.analysis import validation
    from repro.simulator import loggops

    originals = (cli.main, loggops.simulate, validation.simulate)
    query = analyze[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert validation.simulate is loggops.simulate is not originals[1]
        start = time.perf_counter()
        workloads.run_query(query)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert (cli.main, loggops.simulate, validation.simulate) == originals
    counts = tracer.snapshot_counters()
    assert counts["lp.solves"] == 6
    assert counts["lp.compiles"] == 1 and counts["lp.compiles_unsolved"] == 0
    assert counts["schedgen.graph_builds"] == 1
    self_times = tracer.self_times()
    assert all(value >= 0 for value in self_times.values())
    assert sum(self_times.values()) == pytest.approx(
        tracer.ends[0] - tracer.starts[0], rel=1e-9)
    assert sum(self_times.values()) <= wall


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.names = ["cli", "lp.solve", "lp.assemble", "lp.solve"]
    tracer.parents = [-1, 0, 1, 0]
    tracer.starts = [0.0, 1.0, 1.5, 3.0]
    tracer.ends = [10.0, 2.0, 1.75, 4.0]
    times = tracer.self_times()
    assert times["cli.self_s"] == pytest.approx(8.0)
    assert times["lp.solve_s"] == pytest.approx(1.75)
    assert times["lp.assemble_s"] == pytest.approx(0.25)


def test_seed_changes_order_and_parameters_only(tmp_path):
    for workload in run.WORKLOADS:
        a = workloads.make_queries(workload, 1, tmp_path)
        b = workloads.make_queries(workload, 2, tmp_path)
        assert a == workloads.make_queries(workload, 1, tmp_path)
        assert a != b
        shape = lambda qs: sorted((q.kind, q.app, q.nranks, q.allreduce) for q in qs)  # noqa: E731
        assert shape(a) == shape(b)
        for query in a + b:
            assert 0.8 <= query.latency / 3.0 <= 1.2
            assert 0.8 <= query.overhead / 5.0 <= 1.2
            assert query.params.S == workloads.CSCS_TESTBED.S
            if workload == "trace_validate":
                assert 80.0 <= query.max_delta <= 120.0
