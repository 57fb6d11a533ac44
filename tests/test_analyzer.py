"""Tests for the high-level LatencyAnalyzer API."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import LatencyAnalyzer
from repro.apps import ALL_APPS
from repro.core.graph_analysis import forward_pass
from repro.mpi import run_program
from repro.network.params import LogGPSParams
from repro.schedgen import build_graph

PARAMS = LogGPSParams(L=2.0, o=1.0, g=0.0, G=0.0005)


@pytest.fixture(scope="module")
def small_app_graph():
    def app(comm):
        for it in range(4):
            comm.compute(200.0)
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            req = comm.irecv(prv, 256, tag=it)
            comm.send(nxt, 256, tag=it)
            comm.wait(req)
            comm.allreduce(8)

    return build_graph(run_program(app, 4))


@pytest.fixture(scope="module")
def analyzer(small_app_graph):
    return LatencyAnalyzer(small_app_graph, PARAMS)


class TestPredictions:
    def test_runtime_increases_with_delta(self, analyzer):
        base = analyzer.predict_runtime(0.0)
        plus = analyzer.predict_runtime(50.0)
        assert plus > base

    def test_negative_delta_rejected(self, analyzer):
        with pytest.raises(ValueError):
            analyzer.predict_runtime(-1.0)

    def test_baseline_runtime_cached(self, analyzer):
        assert analyzer.baseline_runtime() == pytest.approx(analyzer.predict_runtime(0.0))

    def test_latency_sensitivity_positive(self, analyzer):
        lam = analyzer.latency_sensitivity(0.0)
        assert lam > 0
        # the allreduce alone puts log2(4) = 2 messages per iteration on the path
        assert lam >= 4 * 2

    def test_lambda_bounded_by_longest_chain(self, analyzer, small_app_graph):
        lam = analyzer.latency_sensitivity(500.0)
        assert lam <= small_app_graph.longest_message_chain()

    def test_l_ratio_between_zero_and_one(self, analyzer):
        for delta in (0.0, 10.0, 100.0):
            ratio = analyzer.l_ratio(delta)
            assert 0.0 <= ratio <= 1.0

    def test_prediction_matches_simulator(self, analyzer, small_app_graph):
        from repro.simulator import simulate

        for delta in (0.0, 25.0, 75.0):
            predicted = analyzer.predict_runtime(delta)
            measured = simulate(small_app_graph, PARAMS, delta_L=delta).makespan
            assert predicted == pytest.approx(measured, rel=1e-9)


class TestTolerance:
    def test_tolerances_are_monotone_in_degradation(self, analyzer):
        report = analyzer.tolerance_report()
        assert report.tolerance(0.01) <= report.tolerance(0.02) <= report.tolerance(0.05)

    def test_tolerance_exceeds_baseline_latency(self, analyzer):
        report = analyzer.tolerance_report()
        for _, tol in report.tolerances.items():
            assert tol >= PARAMS.L

    def test_delta_tolerance_consistency(self, analyzer):
        report = analyzer.tolerance_report()
        assert report.delta_tolerance(0.05) == pytest.approx(
            report.tolerance(0.05) - PARAMS.L
        )

    def test_runtime_at_tolerance_respects_bound(self, analyzer):
        tol = analyzer.latency_tolerance(0.05)
        runtime = analyzer.predict_runtime(tol - PARAMS.L)
        assert runtime <= 1.05 * analyzer.baseline_runtime() * (1 + 1e-9)

    def test_tolerance_report_rows(self, analyzer):
        rows = analyzer.tolerance_report().as_rows()
        assert [deg for deg, _, _ in rows] == [0.01, 0.02, 0.05]

    def test_negative_degradation_rejected(self, analyzer):
        with pytest.raises(ValueError):
            analyzer.latency_tolerance(-0.01)

    def test_absolute_vs_delta(self, analyzer):
        absolute = analyzer.latency_tolerance(0.02, absolute=True)
        delta = analyzer.latency_tolerance(0.02, absolute=False)
        assert absolute == pytest.approx(delta + PARAMS.L)

    def test_communication_free_graph_tolerates_any_latency(self):
        from repro.apps import lulesh
        from repro.network.params import CSCS_TESTBED

        graph = lulesh.build(1, CSCS_TESTBED)
        assert graph.num_messages == 0
        analyzer = LatencyAnalyzer(graph, CSCS_TESTBED)
        assert analyzer.latency_tolerance(0.01) == math.inf
        assert analyzer.latency_tolerance(0.01, absolute=False) == math.inf
        assert analyzer.tolerance_report().tolerance(0.05) == math.inf

    def test_unbounded_curve_of_communication_free_graph(self):
        from repro.apps import lulesh
        from repro.network.params import CSCS_TESTBED

        graph = lulesh.build(1, CSCS_TESTBED)
        analysis = LatencyAnalyzer(graph, CSCS_TESTBED).parametric(l_max=math.inf)
        assert analysis.latency_tolerance(0.01) == math.inf
        assert analysis.runtime() == pytest.approx(
            LatencyAnalyzer(graph, CSCS_TESTBED).baseline_runtime()
        )


class TestCurves:
    def test_sensitivity_curve_shapes(self, analyzer):
        curve = analyzer.sensitivity_curve([0.0, 20.0, 40.0, 80.0])
        assert len(curve.delta_L) == 4
        assert np.all(np.diff(curve.runtime) >= -1e-9)          # non-decreasing
        assert np.all(np.diff(curve.latency_sensitivity) >= -1e-9)  # λ_L non-decreasing
        assert np.all(curve.l_ratio >= 0.0) and np.all(curve.l_ratio <= 1.0)

    def test_curve_rejects_negative(self, analyzer):
        with pytest.raises(ValueError):
            analyzer.sensitivity_curve([-1.0, 0.0])

    def test_curve_as_dict(self, analyzer):
        d = analyzer.sensitivity_curve([0.0, 10.0]).as_dict()
        assert set(d) == {"delta_L", "runtime", "latency_sensitivity", "l_ratio"}

    def test_runtime_is_convex_in_delta(self, analyzer):
        deltas = np.linspace(0.0, 200.0, 9)
        curve = analyzer.sensitivity_curve(deltas)
        second_diff = np.diff(curve.runtime, n=2)
        assert np.all(second_diff >= -1e-6)


class TestCriticalLatenciesAndSummary:
    def test_critical_latencies_sorted_within_interval(self, analyzer):
        points = analyzer.critical_latencies(l_min=PARAMS.L, l_max=500.0)
        assert points == sorted(points)
        for p in points:
            assert PARAMS.L < p < 500.0

    def test_summary_keys(self, analyzer, small_app_graph):
        summary = analyzer.summary()
        assert summary["events"] == small_app_graph.num_events
        assert summary["messages"] == small_app_graph.num_messages
        assert summary["tolerance_1pct_us"] <= summary["tolerance_5pct_us"]

    def test_graph_analysis_agrees_with_lp(self, analyzer):
        cp = analyzer.graph_analysis(0.0)
        assert cp.runtime == pytest.approx(analyzer.predict_runtime(0.0))

    def test_parametric_agrees_with_lp(self, analyzer):
        pa = analyzer.parametric(l_max=300.0)
        for delta in (0.0, 50.0, 150.0):
            assert pa.runtime(PARAMS.L + delta) == pytest.approx(
                analyzer.predict_runtime(delta), rel=1e-9
            )

    def test_bandwidth_sensitivity_requires_flag(self, analyzer, small_app_graph):
        with pytest.raises(ValueError):
            analyzer.bandwidth_sensitivity()
        gap_analyzer = LatencyAnalyzer(small_app_graph, PARAMS, gap_symbolic=True)
        assert gap_analyzer.bandwidth_sensitivity() >= 0.0


class TestFusedEngine:
    """Analyzers built from batch specs (the analyze-only fused pipeline)."""

    @staticmethod
    def _program():
        def app(comm):
            for it in range(3):
                comm.compute(100.0)
                nxt = (comm.rank + 1) % comm.size
                prv = (comm.rank - 1) % comm.size
                req = comm.irecv(prv, 256, tag=it)
                comm.send(nxt, 256, tag=it)
                comm.wait(req)
                comm.allreduce(64)

        return run_program(app, 4)

    def test_from_program_matches_frozen_graph_analyzer(self):
        from repro.schedgen.builder import ProtocolConfig

        program = self._program()
        frozen = LatencyAnalyzer(
            build_graph(program, protocol=ProtocolConfig.from_params(PARAMS)), PARAMS
        )
        fused = LatencyAnalyzer.from_program(program, PARAMS)
        assert fused.baseline_runtime() == pytest.approx(frozen.baseline_runtime())
        assert fused.latency_sensitivity(5.0) == pytest.approx(
            frozen.latency_sensitivity(5.0)
        )
        summary_fused, summary_frozen = fused.summary(), frozen.summary()
        assert summary_fused.keys() == summary_frozen.keys()
        for key, value in summary_frozen.items():
            assert summary_fused[key] == pytest.approx(value), key

    def test_from_batches_matches_from_program(self):
        from repro.schedgen.columnar import batches_from_program

        program = self._program()
        via_program = LatencyAnalyzer.from_program(program, PARAMS)
        via_batches = LatencyAnalyzer.from_batches(
            batches_from_program(program), program.nranks, PARAMS
        )
        assert via_batches.baseline_runtime() == pytest.approx(
            via_program.baseline_runtime()
        )

    def test_materialised_graph_shares_frozen_digest(self):
        from repro.schedgen.builder import ProtocolConfig

        program = self._program()
        fused = LatencyAnalyzer.from_program(program, PARAMS)
        frozen = build_graph(program, protocol=ProtocolConfig.from_params(PARAMS))
        assert fused.graph.content_digest() == frozen.content_digest()

    def test_unknown_lp_engine_rejected(self):
        from repro.core import build_lp
        from repro.schedgen.columnar import ScheduleBatches

        spec = ScheduleBatches.from_program(self._program())
        for engine in ("warp", "auto", "fused"):
            with pytest.raises(ValueError, match="engine"):
                build_lp(spec, PARAMS, engine=engine)


class TestNoLPWork:
    """The latency metrics are read off the envelope: no LP is compiled or
    solved on the analyze, curve or validation paths."""

    @pytest.fixture
    def refuse_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an LP was compiled or solved")

        monkeypatch.setattr("repro.lp.compiler.compile_lp", refuse)
        monkeypatch.setattr("repro.lp.compiler.compile_lp_from_batches", refuse)
        monkeypatch.setattr("repro.lp.backends.BackendRegistry.solve", refuse)

    def test_cli_and_validation_sweep_compile_no_lp(self, refuse_lp, small_app_graph, capsys):
        from repro.analysis.validation import run_validation_sweep
        from repro.cli import main
        from repro.network.params import CSCS_TESTBED

        assert main(["analyze", "icon", "--nranks", "8", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["tolerance_1pct_us"] >= CSCS_TESTBED.L
        assert main(["curve", "icon", "--nranks", "4", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["lp_solves"] == 0
        assert main(["curve", "icon", "--nranks", "4"]) == 0
        out = capsys.readouterr().out
        assert "envelope pieces    : 1 for 11 curve points" in out
        assert "LP solves" not in out
        sweep = run_validation_sweep(small_app_graph, PARAMS, delta_Ls=[0.0, 10.0, 50.0])
        assert np.all(sweep.predicted > 0)

    def test_analyzer_metrics_compile_no_lp(self, refuse_lp, small_app_graph):
        analyzer = LatencyAnalyzer(small_app_graph, PARAMS)
        summary = analyzer.summary()
        analyzer.sensitivity_curve([0.0, 25.0])
        analyzer.tolerance_report()
        analyzer.critical_latencies()
        analyzer.critical_latency_curve()
        assert summary["runtime_us"] > 0
        assert analyzer._lp is None


# ---------------------------------------------------------------------------
# public-API property: every app, rank count and parameter corner
# ---------------------------------------------------------------------------


@st.composite
def analyzer_params(draw):
    zero = draw(st.booleans())
    return LogGPSParams(
        L=draw(st.sampled_from([0.0, 1e6]) | st.floats(0.0, 50.0)),
        o=0.0 if zero else draw(st.floats(0.0, 10.0)),
        g=draw(st.sampled_from([0.0, 5.0])),
        G=0.0 if zero else draw(st.floats(0.0, 0.01)),
    )


@settings(max_examples=30, deadline=None)
@given(
    app=st.sampled_from(sorted(ALL_APPS)),
    nranks=st.sampled_from([1, 2, 4, 8]),
    params=analyzer_params(),
)
def test_analyzer_metrics_are_consistent(app, nranks, params):
    """Hypothesis: on any app, rank count and parameters (zero overhead and
    bandwidth cost, zero or huge latency) the analyzer's metrics are finite
    and mutually consistent, or the input is rejected with ``ValueError``."""
    try:
        graph = ALL_APPS[app].build(nranks, params=params)
        analyzer = LatencyAnalyzer(graph, params)
        summary = analyzer.summary()
        tolerances = analyzer.tolerance_report((0.01, 0.05, 0.5))
    except ValueError:
        return
    runtime = summary["runtime_us"]
    assert math.isfinite(runtime)
    assert runtime == pytest.approx(forward_pass(graph, params).max(), rel=1e-9)
    if params.g == 0.0:
        # without the NIC gap the simulator's timestamps are the LP's
        assert analyzer.simulate().makespan == pytest.approx(runtime, rel=1e-9)
    lam = summary["lambda_L"]
    assert math.isfinite(lam) and lam >= 0 and lam == int(lam)
    assert 0.0 <= summary["rho_L"] <= 1.0 + 1e-9
    for degradation in (0.01, 0.05, 0.5):
        tolerance = tolerances.tolerance(degradation)
        assert tolerance >= params.L
        if math.isinf(tolerance):
            # only a runtime that never grows with L tolerates any latency
            assert lam == 0
