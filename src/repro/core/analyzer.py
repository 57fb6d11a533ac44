"""The LLAMP analyzer: the high-level public API of this package.

:class:`LatencyAnalyzer` wraps an execution graph and a LogGPS configuration
and exposes every metric the paper derives from the generated LP.  The
latency metrics are all readings of one convex piecewise-linear function,
``T(L) = max_i(a_i·L + C_i)`` (Eq. 3): the analyzer computes that envelope
once on ``[L₀, ∞)`` with :func:`~repro.core.envelope.forward_envelope` — a
few level passes over the graph, no LP — and answers from it:

* predicted runtime ``T`` for any added latency ΔL (Section II-C) — its value;
* network latency sensitivity ``λ_L`` (Section II-D1) — its slope, equal to
  the reduced cost of ``l`` in the LP;
* the L ratio ``ρ_L = L·λ_L/T`` (fraction of the critical path spent in
  latency);
* network latency tolerance — the largest ``L`` that keeps the runtime within
  x % of the baseline (Section II-D2; the answer of the paper's ``max l`` LP);
* all critical latencies in an interval (Algorithm 2) — its breakpoints;
* full sensitivity curves over a ΔL sweep (the lower panels of Fig. 9/10).

Only bandwidth sensitivity ``λ_G`` (Section II-B1) solves the LP, which is
built on first use of :attr:`LatencyAnalyzer.lp`.

Typical use::

    from repro import LatencyAnalyzer, CSCS_TESTBED
    from repro.apps import lulesh

    graph = lulesh.build(nranks=8, params=CSCS_TESTBED)
    analyzer = LatencyAnalyzer(graph, CSCS_TESTBED)
    print(analyzer.predict_runtime())                 # seconds of predicted runtime
    print(analyzer.latency_tolerance(0.01))           # 1% latency tolerance in µs
    print(analyzer.latency_sensitivity(delta_L=10.0)) # λ_L at +10 µs
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..network.params import LogGPSParams
from ..schedgen.graph import ExecutionGraph
from .critical_latency import Tangent, _collect_breakpoints, _segment_tangents
from .envelope import check_nonnegative, validate_interval
from .graph_analysis import CriticalPathResult, analyze_critical_path
from .lp_builder import GraphLP, build_lp
from .parametric import BatchedSweep, ParametricAnalysis, PiecewiseLinear

__all__ = ["SensitivityCurve", "ToleranceReport", "LatencyAnalyzer"]


@dataclass
class SensitivityCurve:
    """Runtime, ``λ_L`` and ``ρ_L`` sampled over a ΔL sweep."""

    delta_L: np.ndarray
    runtime: np.ndarray
    latency_sensitivity: np.ndarray
    l_ratio: np.ndarray

    def as_dict(self) -> dict[str, list[float]]:
        return {
            "delta_L": self.delta_L.tolist(),
            "runtime": self.runtime.tolist(),
            "latency_sensitivity": self.latency_sensitivity.tolist(),
            "l_ratio": self.l_ratio.tolist(),
        }


@dataclass
class ToleranceReport:
    """Latency tolerances at the paper's standard degradation levels."""

    baseline_runtime: float
    baseline_latency: float
    tolerances: dict[float, float]

    def tolerance(self, degradation: float) -> float:
        """Absolute tolerable latency L for a given degradation level."""
        return self.tolerances[degradation]

    def delta_tolerance(self, degradation: float) -> float:
        """Tolerable *added* latency ΔL over the baseline network latency."""
        return self.tolerances[degradation] - self.baseline_latency

    def as_rows(self) -> list[tuple[float, float, float]]:
        """Rows of (degradation, L, ΔL), sorted by degradation."""
        return [
            (deg, tol, tol - self.baseline_latency)
            for deg, tol in sorted(self.tolerances.items())
        ]


class LatencyAnalyzer:
    """Analyse the network-latency behaviour of one execution graph.

    Every latency metric is read from the forward envelope and never reaches
    a solver; the one metric that solves an LP (with HiGHS) is
    :meth:`bandwidth_sensitivity`.
    """

    #: degradation levels highlighted throughout the paper (Fig. 1 / Fig. 9)
    DEFAULT_DEGRADATIONS = (0.01, 0.02, 0.05)

    def __init__(
        self,
        graph: ExecutionGraph,
        params: LogGPSParams,
        *,
        gap_symbolic: bool = False,
        cache_dir: str | os.PathLike | None = None,
    ) -> None:
        from ..schedgen.columnar import ScheduleBatches

        if isinstance(graph, ScheduleBatches):
            # fused analyze-only path: keep the batch spec; the execution
            # graph is only materialised (zero-copy, never frozen) if a
            # graph-consuming method is actually called
            self._schedule = graph
            self._graph: ExecutionGraph | None = None
        else:
            self._schedule = None
            self._graph = graph
        self.params = params
        self._gap_mode = "global" if gap_symbolic else "constant"
        self._lp: GraphLP | None = None
        self._envelopes: dict[tuple[float, float], PiecewiseLinear] = {}
        self._store = None
        if cache_dir is not None:
            from ..artifacts import ArtifactStore

            self._store = ArtifactStore(cache_dir)

    @classmethod
    def from_program(cls, program, params: LogGPSParams, *, algorithms=None,
                     protocol=None, **kwargs) -> "LatencyAnalyzer":
        """Analyze ``program`` end-to-end on the fused pipeline.

        The program is columnarised once
        (:func:`~repro.schedgen.columnar.batches_from_program`) and held as a
        :class:`~repro.schedgen.columnar.ScheduleBatches` spec; the envelope
        (and an LP, if one is asked for) works on the zero-copy, never-frozen
        execution graph built from it.
        """
        from ..schedgen.columnar import ScheduleBatches

        spec = ScheduleBatches.from_program(
            program, algorithms=algorithms, protocol=protocol
        )
        return cls(spec, params, **kwargs)

    @classmethod
    def from_batches(cls, batches, nranks: int, params: LogGPSParams, *,
                     algorithms=None, protocol=None, mmap_dir=None,
                     **kwargs) -> "LatencyAnalyzer":
        """Analyze columnar :class:`~repro.schedgen.columnar.RankOpBatch`
        arrays on the fused pipeline (see :meth:`from_program`).

        ``mmap_dir`` disk-backs the fused graph's columns (out-of-core
        analyze path); the caller owns the directory for the analyzer's
        lifetime."""
        from ..schedgen.columnar import ScheduleBatches

        spec = ScheduleBatches(
            batches, nranks, algorithms=algorithms, protocol=protocol,
            mmap_dir=mmap_dir,
        )
        return cls(spec, params, **kwargs)

    @property
    def graph(self) -> ExecutionGraph:
        """The execution graph under analysis.

        For analyzers built from batch specs the graph is materialised on
        first access through the fused builder (zero-copy columns, condensed
        levels, digest identical to the frozen build) and cached.
        """
        if self._graph is None:
            self._graph = self._schedule.graph_for(self.params)
        return self._graph

    @graph.setter
    def graph(self, value: ExecutionGraph) -> None:
        self._graph = value

    @property
    def store(self):
        """The :class:`~repro.artifacts.ArtifactStore` behind ``cache_dir``
        (``None`` when caching is off)."""
        return self._store

    # -- lazily built artefacts -------------------------------------------------

    @property
    def lp(self) -> GraphLP:
        """The generated LP (built on first use, then cached and re-solved).

        No metric but :meth:`bandwidth_sensitivity` touches it."""
        if self._lp is None:
            source = self._schedule if self._schedule is not None else self.graph
            self._lp = build_lp(
                source,
                self.params,
                latency_mode="global",
                gap_mode=self._gap_mode,
            )
        return self._lp

    def graph_analysis(self, delta_L: float = 0.0) -> CriticalPathResult:
        """The conventional two-pass critical path analysis (baseline method)."""
        return analyze_critical_path(self.graph, self.params.with_delta_latency(delta_L))

    def simulate(self, delta_L: float = 0.0, *, injector=None, noise=None):
        """One LogGOPS simulation run (the "measured" side of the paper's
        validation), on the level-synchronous engine.

        ``delta_L`` and an explicit ``injector`` are mutually exclusive,
        exactly as in :func:`repro.simulator.simulate`.
        """
        from ..simulator.loggops import simulate

        return simulate(
            self.graph,
            self.params,
            delta_L=delta_L,
            injector=injector,
            noise=noise,
        )

    def simulated_sweep(self, delta_Ls, *, injector: str = "ideal", noise=None):
        """Simulated makespans over a ΔL sweep in one batched level pass.

        Uses :func:`repro.simulator.columnar.simulate_sweep`: every level of
        the graph advances all sweep points at once (one 2-D array pass), so
        the whole sweep costs a single traversal.
        """
        from ..simulator.columnar import simulate_sweep

        return simulate_sweep(
            self.graph, self.params, delta_Ls, injector=injector, noise=noise
        )

    def _envelope(self, l_min: float, l_max: float) -> PiecewiseLinear:
        """The exact ``T(L)`` envelope on ``[l_min, l_max]``, built once per
        interval by :func:`~repro.core.envelope.forward_envelope`.

        With ``cache_dir=`` set, envelopes go through the content-addressed
        :class:`~repro.artifacts.ArtifactStore` under the key shared with
        :func:`~repro.core.parametric.batched_sweep_graphs` and the sweep
        pool (:func:`~repro.artifacts.envelope_key`): an envelope warmed by
        any of them is a hit here, and a miss is persisted for them.
        """
        validate_interval(l_min, l_max)
        interval = (float(l_min), float(l_max))
        envelope = self._envelopes.get(interval)
        if envelope is not None:
            return envelope

        def build() -> PiecewiseLinear:
            from .envelope import forward_envelope

            return forward_envelope(self.graph, self.params, l_min=l_min, l_max=l_max)

        if self._store is None:
            envelope = build()
        else:
            from ..artifacts import envelope_key

            key = envelope_key(
                self.graph, self.params, l_min=l_min, l_max=l_max,
                gap_mode=self._gap_mode,
            )
            envelope = self._store.get_or_build_envelope(key, build)
        self._envelopes[interval] = envelope
        return envelope

    def parametric(self, l_min: float = 0.0, l_max: float = 10_000.0) -> ParametricAnalysis:
        """The exact piecewise-linear ``T(L)`` curve on ``[l_min, l_max]``."""
        return ParametricAnalysis(
            envelope=self._envelope(l_min, l_max), params=self.params, graph=self.graph
        )

    def _curve(self) -> ParametricAnalysis:
        """``T(L)`` on ``[L₀, ∞)``: the one curve every metric reads."""
        return self.parametric(self.params.L, math.inf)

    def batched_sweep(
        self, l_min: float | None = None, l_max: float = 10_000.0
    ) -> BatchedSweep:
        """A :class:`BatchedSweep` wrapping the envelope on
        ``[l_min, l_max]`` (``l_min`` defaults to the baseline latency).

        The sweep answers any number of points from the exact curve; it
        never builds, assembles or solves an LP (``num_solves == 0``).
        """
        lo = self.params.L if l_min is None else l_min
        return BatchedSweep.from_envelope(self._envelope(lo, l_max))

    @classmethod
    def sweep_many(
        cls,
        graphs: Sequence[ExecutionGraph],
        params: LogGPSParams,
        *,
        l_min: float | None = None,
        l_max: float = 10_000.0,
        max_pieces: int = 50_000,
        processes: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        **build_kwargs,
    ) -> list[BatchedSweep]:
        """One :class:`BatchedSweep` per graph, via the shared-memory pool.

        The many-graph counterpart of :meth:`batched_sweep`: graphs are
        deduplicated by content digest, and with ``processes > 1`` the unique
        ones fan out over a :class:`~repro.parallel.SweepPool` of ``spawn``
        workers that attach the graph columns zero-copy instead of unpickling
        private copies.  Every returned sweep wraps a finished envelope
        (``num_solves == 0`` in this process).
        """
        from .parametric import batched_sweep_graphs

        lo = params.L if l_min is None else l_min
        envelopes = batched_sweep_graphs(
            graphs,
            params,
            l_min=lo,
            l_max=l_max,
            max_pieces=max_pieces,
            processes=processes,
            cache_dir=cache_dir,
            **build_kwargs,
        )
        return [BatchedSweep.from_envelope(envelope) for envelope in envelopes]

    # -- core metrics -------------------------------------------------------------

    def predict_runtime(self, delta_L: float = 0.0) -> float:
        """Predicted runtime (µs) with ``delta_L`` µs of added network latency."""
        check_nonnegative(delta_L, "delta_L", "predict_runtime")
        return self._curve().runtime(self.params.L + delta_L)

    def baseline_runtime(self) -> float:
        """Predicted runtime at the baseline latency."""
        return self.predict_runtime(0.0)

    def latency_sensitivity(self, delta_L: float = 0.0) -> float:
        """``λ_L = ∂T/∂L`` at the given added latency (messages on the critical
        path; the slope from above at a critical latency)."""
        check_nonnegative(delta_L, "delta_L", "latency_sensitivity")
        return self._curve().latency_sensitivity(self.params.L + delta_L)

    def l_ratio(self, delta_L: float = 0.0) -> float:
        """``ρ_L``: fraction of the predicted runtime attributable to network latency."""
        check_nonnegative(delta_L, "delta_L", "l_ratio")
        return self._curve().l_ratio(self.params.L + delta_L)

    def bandwidth_sensitivity(self, delta_L: float = 0.0) -> float:
        """``λ_G = ∂T/∂G``: bytes (minus one per message) on the critical path.

        The one metric read from an LP solve: it needs the dual of the
        symbolic gap variable."""
        if self._gap_mode != "global":
            raise ValueError(
                "build the analyzer with gap_symbolic=True to query bandwidth sensitivity"
            )
        check_nonnegative(delta_L, "delta_L", "bandwidth_sensitivity")
        solution = self.lp.solve_runtime(L=self.params.L + delta_L)
        return self.lp.gap_sensitivity(solution)

    # -- tolerance -----------------------------------------------------------------

    def latency_tolerance(self, degradation: float, *, absolute: bool = True) -> float:
        """Largest latency keeping the runtime within ``(1+degradation)·T₀``.

        ``absolute=True`` returns the total tolerable latency ``L`` (as in
        Fig. 1); ``absolute=False`` returns the tolerable *added* latency ΔL.
        A runtime that stops growing with ``L`` — e.g. a graph without
        messages — tolerates any latency: the answer is ``inf``.
        """
        tolerance = self._curve().latency_tolerance(degradation)
        return tolerance if absolute else tolerance - self.params.L

    def tolerance_report(
        self, degradations: Sequence[float] | None = None
    ) -> ToleranceReport:
        """Latency tolerances at several degradation levels (default 1/2/5 %)."""
        degradations = tuple(degradations or self.DEFAULT_DEGRADATIONS)
        tolerances = {deg: self.latency_tolerance(deg) for deg in degradations}
        return ToleranceReport(
            baseline_runtime=self.baseline_runtime(),
            baseline_latency=self.params.L,
            tolerances=tolerances,
        )

    # -- curves and sweeps ------------------------------------------------------------

    def sensitivity_curve(self, delta_Ls: Iterable[float]) -> SensitivityCurve:
        """Sample runtime, ``λ_L`` and ``ρ_L`` over a ΔL sweep (Fig. 9 lower
        panels), every point read from the one envelope."""
        deltas = np.asarray(sorted(set(float(d) for d in delta_Ls)), dtype=np.float64)
        check_nonnegative(deltas, "delta_Ls", "sensitivity_curve")
        Ls = self.params.L + deltas
        envelope = self._curve().envelope
        runtimes = envelope.sample(Ls)
        lambdas = envelope.slopes(Ls)
        with np.errstate(divide="ignore", invalid="ignore"):
            rhos = np.where(runtimes > 0, Ls * lambdas / runtimes, 0.0)
        return SensitivityCurve(
            delta_L=deltas, runtime=runtimes, latency_sensitivity=lambdas, l_ratio=rhos
        )

    def critical_latencies(
        self, l_min: float | None = None, l_max: float = 1_000.0, *, step: float | None = None
    ) -> list[float]:
        """Critical latencies in ``[l_min, l_max]`` (Algorithm 2): the
        breakpoints of the envelope, coalesced by ``step`` when given."""
        lo = self.params.L if l_min is None else l_min
        return _collect_breakpoints(self._envelope(lo, l_max).breakpoints(), step)

    def critical_latency_curve(
        self, l_min: float | None = None, l_max: float = 1_000.0
    ) -> list[Tangent]:
        """One :class:`~repro.lp.parametric.Tangent` per linear segment of
        ``T(L)`` on ``[l_min, l_max]``, anchored at the segment mid-point."""
        lo = self.params.L if l_min is None else l_min
        return _segment_tangents(self._envelope(lo, l_max), lo, l_max)

    # -- reporting ----------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """One-line summary used by the CLI and the examples."""
        report = self.tolerance_report()
        return {
            "nranks": self.graph.nranks,
            "events": self.graph.num_events,
            "messages": self.graph.num_messages,
            "runtime_us": report.baseline_runtime,
            "lambda_L": self.latency_sensitivity(),
            "rho_L": self.l_ratio(),
            "tolerance_1pct_us": report.tolerance(0.01),
            "tolerance_2pct_us": report.tolerance(0.02),
            "tolerance_5pct_us": report.tolerance(0.05),
        }
