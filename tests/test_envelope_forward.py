"""Tests for the single-traversal forward envelope engine.

The contract under test: ``forward_envelope`` produces the *identical*
``PiecewiseLinear`` envelope — values, slopes and breakpoints to 1e-6 —
as the :class:`ParametricLP` tangent search, whenever the affinity
contract documented in ``src/repro/lp/README.md`` ("Envelope engines")
holds.  Non-affine LPs (per-pair HLogGP variables, moved symbolic
bounds) must fall back to the LP tangent search silently.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.artifacts import ArtifactStore, envelope_key
from repro.core import (
    BatchedSweep,
    EnvelopeOverflowError,
    LatencyAnalyzer,
    batched_sweep_graphs,
    build_lp,
    critical_latency_curve,
    find_critical_latencies,
    forward_envelope,
    forward_incompatibility,
    resolve_envelope_engine,
)
from repro.core.envelope import forward_supports_modes
from repro.lp.parametric import ParametricLP
from repro.network.params import LogGPSParams
from repro.schedgen import build_graph
from repro.testing import (
    build_random_dag,
    build_random_program,
    build_running_example,
    build_staircase,
)

PARAMS = LogGPSParams(L=1.0, o=0.1, g=0.0, G=0.001)
ZERO_OVERHEAD = LogGPSParams(L=1.0, o=0.0, g=0.0, G=0.0)


def assert_envelopes_identical(actual, expected, *, atol=1e-6):
    """Same piece count, and per-piece slopes/intercepts/values agree."""
    assert len(actual.lines) == len(expected.lines)
    for a, b in zip(actual.lines, expected.lines):
        assert a.slope == pytest.approx(b.slope, abs=atol)
        assert a.intercept == pytest.approx(b.intercept, abs=atol)
    xs = np.linspace(actual.lo, actual.hi, 97)
    np.testing.assert_allclose(actual.sample(xs), expected.sample(xs), atol=atol)
    np.testing.assert_allclose(
        actual.breakpoints(), expected.breakpoints(), atol=atol
    )


def assert_envelopes_equivalent(actual, expected, *, atol=1e-6):
    """Pointwise parity, robust to solver-noise degeneracies.

    The LP oracle may keep a zero-width piece when two path costs tie to
    within solver noise (~1e-15); the forward engine resolves the tie
    exactly and drops it.  The *functions* still agree everywhere, so the
    adversarial (Hypothesis) property checks values on a dense grid plus
    extra samples bracketing every breakpoint of either envelope, and
    requires each forward breakpoint to appear among the LP breakpoints.
    """
    bps = sorted(set(actual.breakpoints()) | set(expected.breakpoints()))
    xs = np.linspace(actual.lo, actual.hi, 197)
    near = np.array([b + d for b in bps for d in (-1e-4, 0.0, 1e-4)])
    xs = np.clip(np.concatenate([xs, near]), actual.lo, actual.hi)
    np.testing.assert_allclose(
        actual.sample(xs), expected.sample(xs), atol=atol, rtol=1e-9
    )
    expected_bps = np.asarray(expected.breakpoints())
    for b in actual.breakpoints():
        assert np.any(np.abs(expected_bps - b) <= atol), (
            f"forward breakpoint {b} missing from LP breakpoints {expected_bps}"
        )


def lp_envelope(graph, params, *, l_min=0.0, l_max=100.0, **build_kwargs):
    sweep = BatchedSweep(
        build_lp(graph, params, latency_mode="global", **build_kwargs),
        l_min=l_min,
        l_max=l_max,
    )
    envelope = sweep.lp_envelope()
    assert sweep.num_solves > 0  # the oracle really solved LPs
    return envelope


# ---------------------------------------------------------------------------
# exact parity with the ParametricLP oracle
# ---------------------------------------------------------------------------


class TestForwardParity:
    def test_running_example_matches_lp_and_parametric(self):
        graph = build_running_example()
        forward = forward_envelope(graph, PARAMS, l_min=0.0, l_max=50.0)
        assert_envelopes_identical(forward, lp_envelope(graph, PARAMS, l_max=50.0))
        lp = build_lp(graph, PARAMS)
        oracle = ParametricLP(lp.model)
        for L in (0.0, 0.2, 1.0, 49.0):
            tangent = oracle.probe(lp.latency, L)
            assert forward.value(L) == pytest.approx(tangent.value, abs=1e-9)
            assert forward.slope(L) == pytest.approx(tangent.slope, abs=1e-9)

    def test_staircase_has_exact_breakpoints(self):
        k = 6
        graph = build_staircase(k)
        forward = forward_envelope(graph, ZERO_OVERHEAD, l_min=0.0, l_max=float(k + 2))
        assert len(forward.lines) == k
        np.testing.assert_allclose(
            forward.breakpoints(), np.arange(1.0, float(k)), atol=1e-9
        )
        assert_envelopes_identical(
            forward, lp_envelope(graph, ZERO_OVERHEAD, l_max=float(k + 2))
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_random_dags_match_lp(self, seed):
        graph = build_random_dag(seed, nranks=4, rounds=12)
        forward = forward_envelope(graph, PARAMS, l_min=0.0, l_max=100.0)
        assert_envelopes_identical(forward, lp_envelope(graph, PARAMS))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_programs_match_lp(self, seed):
        graph = build_graph(build_random_program(seed))
        forward = forward_envelope(graph, PARAMS, l_min=0.0, l_max=100.0)
        assert_envelopes_identical(forward, lp_envelope(graph, PARAMS))

    @pytest.mark.parametrize("gap_mode", ["constant", "global"])
    @pytest.mark.parametrize("overhead_mode", ["constant", "global"])
    def test_symbolic_gap_and_overhead_modes_stay_affine(
        self, gap_mode, overhead_mode
    ):
        # symbolic gap/overhead variables sit at their params lower bounds at
        # the optimum, so the forward fold is still exact
        graph = build_random_dag(7, nranks=3, rounds=8)
        lp = build_lp(
            graph,
            PARAMS,
            latency_mode="global",
            gap_mode=gap_mode,
            overhead_mode=overhead_mode,
        )
        assert forward_incompatibility(lp) is None
        sweep = BatchedSweep(lp, l_min=0.0, l_max=100.0)
        forward = sweep.envelope
        assert sweep.num_solves == 0  # the forward pass, not the tangent search
        assert_envelopes_identical(
            forward,
            lp_envelope(
                graph, PARAMS, gap_mode=gap_mode, overhead_mode=overhead_mode
            ),
        )


@st.composite
def program_graphs(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if draw(st.booleans()):
        return build_graph(
            build_random_program(seed, nranks=draw(st.integers(2, 4)), rounds=8)
        )
    return build_random_dag(seed, nranks=draw(st.integers(2, 4)), rounds=8)


@st.composite
def affine_params(draw):
    return LogGPSParams(
        L=draw(st.floats(min_value=0.0, max_value=20.0)),
        o=draw(st.floats(min_value=0.0, max_value=5.0)),
        g=0.0,
        G=draw(st.floats(min_value=0.0, max_value=0.01)),
    )


@settings(max_examples=25, deadline=None)
@given(
    graph=program_graphs(),
    params=affine_params(),
    gap_mode=st.sampled_from(["constant", "global"]),
    overhead_mode=st.sampled_from(["constant", "global"]),
)
def test_forward_equals_lp_property(graph, params, gap_mode, overhead_mode):
    """Hypothesis: forward envelope == ParametricLP envelope on every affine LP."""
    forward = forward_envelope(graph, params, l_min=0.0, l_max=100.0)
    expected = lp_envelope(
        graph, params, gap_mode=gap_mode, overhead_mode=overhead_mode
    )
    assert_envelopes_equivalent(forward, expected)


# ---------------------------------------------------------------------------
# fallback on non-affine LPs
# ---------------------------------------------------------------------------


class TestNonAffineFallback:
    def test_per_pair_gap_auto_falls_back_to_lp(self):
        graph = build_random_dag(3)
        lp = build_lp(graph, PARAMS, latency_mode="global", gap_mode="per_pair")
        reason = forward_incompatibility(lp)
        assert reason is not None and "per-pair" in reason
        assert resolve_envelope_engine("auto", lp) == "lp"
        sweep = BatchedSweep(lp, l_min=0.0, l_max=50.0)
        # every per-pair gap sits at params.G, so the curve is the affine one
        assert_envelopes_identical(
            sweep.envelope, forward_envelope(graph, PARAMS, l_min=0.0, l_max=50.0)
        )
        assert sweep.num_solves > 0  # the oracle ran

    def test_per_pair_latency_mode_is_incompatible(self):
        graph = build_random_dag(3)
        lp = build_lp(graph, PARAMS, latency_mode="per_pair")
        reason = forward_incompatibility(lp)
        assert reason is not None and "latency" in reason

    def test_moved_gap_bound_breaks_affinity(self):
        graph = build_random_dag(3)
        lp = build_lp(graph, PARAMS, latency_mode="global", gap_mode="global")
        assert forward_incompatibility(lp) is None
        lp.set_gap_bound(PARAMS.G + 1.0)
        reason = forward_incompatibility(lp)
        assert reason is not None and "gap lower bound" in reason
        assert resolve_envelope_engine("auto", lp) == "lp"

    def test_moved_overhead_bound_breaks_affinity(self):
        graph = build_random_dag(3)
        lp = build_lp(
            graph, PARAMS, latency_mode="global", overhead_mode="global"
        )
        lp.set_overhead_bound(PARAMS.o + 0.5)
        reason = forward_incompatibility(lp)
        assert reason is not None and "overhead lower bound" in reason

    def test_forward_supports_modes_matches_build_knobs(self):
        assert forward_supports_modes({})
        assert forward_supports_modes({"gap_mode": "global"})
        assert not forward_supports_modes({"gap_mode": "per_pair"})
        assert not forward_supports_modes({"latency_mode": "per_pair"})
        assert not forward_supports_modes({"mystery_knob": 1})


# ---------------------------------------------------------------------------
# interval validation (pinned message) and overflow
# ---------------------------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize("lo,hi", [(5.0, 5.0), (5.0, 1.0), (-1.0, 10.0)])
    def test_critical_latency_interval_validated_up_front(self, lo, hi):
        graph = build_running_example()
        with pytest.raises(
            ValueError, match=r"require 0 <= l_min < l_max"
        ):
            find_critical_latencies(graph, lo, hi, params=PARAMS)
        with pytest.raises(
            ValueError, match=r"invalid latency interval"
        ):
            critical_latency_curve(graph, lo, hi, params=PARAMS)

    def test_forward_envelope_interval_validated(self):
        with pytest.raises(ValueError, match="invalid latency interval"):
            forward_envelope(build_running_example(), PARAMS, l_min=3.0, l_max=3.0)

    def test_max_pieces_overflow_raises(self):
        graph = build_staircase(8)
        with pytest.raises(EnvelopeOverflowError, match="narrow the latency"):
            forward_envelope(graph, ZERO_OVERHEAD, l_min=0.0, l_max=20.0, max_pieces=3)


# ---------------------------------------------------------------------------
# critical latencies and curves through the forward engine
# ---------------------------------------------------------------------------


class TestCriticalLatencies:
    def test_breakpoints_match_lp_engine(self):
        graph = build_staircase(5)
        lp = build_lp(graph, ZERO_OVERHEAD, latency_mode="global")
        fw = find_critical_latencies(lp, 0.0, 8.0)
        ref = sorted(lp.tangent_envelope(0.0, 8.0).breakpoints)
        np.testing.assert_allclose(fw, ref, atol=1e-6)
        np.testing.assert_allclose(fw, [1.0, 2.0, 3.0, 4.0], atol=1e-9)

    def test_graph_input_needs_no_lp(self):
        # an ExecutionGraph plus params goes straight to the forward pass
        graph = build_staircase(4)
        points = find_critical_latencies(graph, 0.0, 8.0, params=ZERO_OVERHEAD)
        np.testing.assert_allclose(points, [1.0, 2.0, 3.0], atol=1e-9)
        with pytest.raises(ValueError, match="params"):
            find_critical_latencies(graph, 0.0, 8.0)

    def test_curve_tangents_match_lp_engine(self):
        graph = build_random_dag(11)
        fw = critical_latency_curve(graph, 0.0, 60.0, params=PARAMS)
        # a per-pair gap LP breaks affinity: its curve comes from the tangent
        # search, yet every pair gap sits at params.G, so the curve is equal
        lp = build_lp(graph, PARAMS, latency_mode="global", gap_mode="per_pair")
        assert forward_incompatibility(lp) is not None
        ref = critical_latency_curve(lp, 0.0, 60.0)
        assert len(fw) == len(ref)
        for a, b in zip(fw, ref):
            assert a.slope == pytest.approx(b.slope, abs=1e-6)
            assert a.value == pytest.approx(b.value, abs=1e-6)

    def test_analyzer_forward_engine_never_builds_lp(self):
        graph = build_staircase(4)
        analyzer = LatencyAnalyzer(graph, ZERO_OVERHEAD)
        points = analyzer.critical_latencies(0.0, 8.0)
        np.testing.assert_allclose(points, [1.0, 2.0, 3.0], atol=1e-9)
        assert analyzer._lp is None  # no LP was ever assembled


# ---------------------------------------------------------------------------
# engines share artifact-store envelope entries
# ---------------------------------------------------------------------------


class TestSharedArtifacts:
    def test_envelope_cached_by_one_engine_serves_the_other(self, tmp_path):
        graph = build_random_dag(17)
        oracle = lp_envelope(graph, PARAMS, l_min=PARAMS.L, l_max=50.0)
        ArtifactStore(tmp_path).put(
            "envelope",
            envelope_key(graph, PARAMS, l_min=PARAMS.L, l_max=50.0),
            oracle,
        )

        warm = LatencyAnalyzer(graph, PARAMS, cache_dir=str(tmp_path))
        warm_sweep = warm.batched_sweep(l_max=50.0)
        assert warm.store.hits["envelope"] == 1  # the oracle's entry
        assert warm_sweep.num_solves == 0
        cold_sweep = LatencyAnalyzer(graph, PARAMS).batched_sweep(l_max=50.0)
        assert_envelopes_identical(warm_sweep.envelope, cold_sweep.envelope)

    def test_batched_sweep_graphs_engines_agree_serial_and_parallel(self):
        graphs = [build_random_dag(s) for s in (1, 2)]
        serial = batched_sweep_graphs(graphs, PARAMS, l_max=80.0)
        parallel = batched_sweep_graphs(graphs, PARAMS, l_max=80.0, processes=2)
        for graph, fw, par in zip(graphs, serial, parallel):
            reference = lp_envelope(graph, PARAMS, l_max=80.0)
            assert_envelopes_identical(fw, reference)
            assert_envelopes_identical(par, reference)

    def test_store_key_is_engine_free(self, tmp_path):
        store = ArtifactStore(tmp_path)
        graph = build_random_dag(19)
        serial = batched_sweep_graphs(
            [graph], PARAMS, l_min=PARAMS.L, l_max=40.0, cache_dir=tmp_path
        )
        assert store.stats()["kinds"]["envelope"]["entries"] == 1
        analyzer = LatencyAnalyzer(graph, PARAMS, cache_dir=tmp_path)
        again = analyzer.batched_sweep(l_max=40.0).envelope
        # still one entry: the analyzer hit the graph sweep's artifact
        assert analyzer.store.hits["envelope"] == 1
        assert store.stats()["kinds"]["envelope"]["entries"] == 1
        assert_envelopes_identical(again, serial[0])
        assert_envelopes_identical(
            again, lp_envelope(graph, PARAMS, l_min=PARAMS.L, l_max=40.0)
        )


# ---------------------------------------------------------------------------
# the analyzer's metrics against the GraphLP oracles
# ---------------------------------------------------------------------------

DEGRADATIONS = (0.01, 0.05, 0.5)


def assert_analyzer_matches_lp(graph, params, *, max_segments=8):
    """Every analyzer metric equals its ``GraphLP`` oracle to rel 1e-9.

    Latencies are sampled at segment mid-points of ``T(L)`` on ``[L0, ∞)``
    (and past the last breakpoint), never on a breakpoint, where the LP's
    reduced cost could legitimately be either neighbouring slope.
    """
    approx = dict(rel=1e-9, abs=1e-9)
    analyzer = LatencyAnalyzer(graph, params)
    lp = build_lp(graph, params)
    L0 = params.L
    bounds = [L0, *analyzer.parametric(L0, np.inf).critical_latencies()]
    bounds.append(bounds[-1] + max(1.0, bounds[-1] - L0))
    Ls = [0.5 * (a + b) for a, b in zip(bounds, bounds[1:])][:max_segments]
    deltas = [L - L0 for L in Ls]

    curve = analyzer.sensitivity_curve(deltas)
    for i, (L, delta) in enumerate(zip(Ls, deltas)):
        solution = lp.solve_runtime(L=L)
        T, lam = solution.objective, lp.latency_sensitivity(solution)
        assert analyzer.predict_runtime(delta) == pytest.approx(T, **approx)
        assert analyzer.latency_sensitivity(delta) == pytest.approx(lam, **approx)
        assert analyzer.l_ratio(delta) == pytest.approx(L * lam / T, **approx)
        assert curve.runtime[i] == pytest.approx(T, **approx)
        assert curve.latency_sensitivity[i] == pytest.approx(lam, **approx)
        assert curve.l_ratio[i] == pytest.approx(L * lam / T, **approx)

    T0 = lp.solve_runtime(L=L0).objective
    report = analyzer.tolerance_report(DEGRADATIONS)
    assert report.baseline_runtime == pytest.approx(T0, **approx)
    for degradation in DEGRADATIONS:
        if lp.num_messages == 0:
            assert report.tolerance(degradation) == np.inf
            continue
        lp.set_latency_bound(L0)
        oracle = lp.solve_max_latency((1.0 + degradation) * T0).objective
        assert report.tolerance(degradation) == pytest.approx(oracle, **approx)
        assert analyzer.latency_tolerance(degradation) == report.tolerance(degradation)


class TestAnalyzerParity:
    def test_running_example(self):
        assert_analyzer_matches_lp(build_running_example(), PARAMS)

    @pytest.mark.parametrize("k", [3, 6])
    def test_staircases(self, k):
        assert_analyzer_matches_lp(build_staircase(k), ZERO_OVERHEAD)

    @pytest.mark.parametrize("app,nranks", [("icon", 4), ("lulesh", 8)])
    def test_apps(self, app, nranks):
        from repro.apps import ALL_APPS
        from repro.network.params import CSCS_TESTBED

        graph = ALL_APPS[app].build(nranks, CSCS_TESTBED)
        assert_analyzer_matches_lp(graph, CSCS_TESTBED, max_segments=4)


@settings(max_examples=15, deadline=None)
@given(graph=program_graphs(), params=affine_params())
def test_analyzer_equals_lp_property(graph, params):
    """Hypothesis: analyzer metrics == GraphLP oracles on random DAGs/programs."""
    assert_analyzer_matches_lp(graph, params, max_segments=4)


# ---------------------------------------------------------------------------
# fleet + CLI threading
# ---------------------------------------------------------------------------


class TestFleetAndCli:
    def test_fleet_forward_engine_matches_default(self):
        from repro.network.params import CSCS_TESTBED
        from repro.parallel import ScenarioFleet

        fleet = ScenarioFleet(
            apps=["lulesh"],
            nranks=[2],
            allreduces=["ring"],
            params_grid=[CSCS_TESTBED],
            injectors=[None, "sender_delay"],
            l_max=50.0,
            sim_deltas=(0.0, 5.0),
            processes=1,
        )
        rows = fleet.run().rows
        graph = next(iter(fleet._build_graphs(fleet.scenarios())[0].values()))
        lp = build_lp(graph, CSCS_TESTBED)
        solution = lp.solve_runtime(L=CSCS_TESTBED.L)
        assert len(rows) == 2
        for row in rows:
            assert row["runtime_us"] == pytest.approx(solution.objective, rel=1e-9)
            assert row["lambda_L"] == pytest.approx(
                lp.latency_sensitivity(solution), abs=1e-9
            )
        # injector simulation rides along: injectors perturb the simulator,
        # never the envelope
        assert [row.get("sim_runtime_us") is None for row in rows] == [True, False]
