"""The LLAMP analyzer: the high-level public API of this package.

:class:`LatencyAnalyzer` wraps an execution graph and a LogGPS configuration
and exposes every metric the paper derives from the generated LP:

* predicted runtime ``T`` for any added latency ΔL (Section II-C);
* network latency sensitivity ``λ_L`` (reduced cost of ``l``, Section II-D1);
* the L ratio ``ρ_L`` (fraction of the critical path spent in latency);
* network latency tolerance — the largest ``L`` that keeps the runtime within
  x % of the baseline (Section II-D2, directly via ``max l`` LPs);
* all critical latencies in an interval (Algorithm 2);
* bandwidth sensitivity ``λ_G`` (Section II-B1);
* full sensitivity curves over a ΔL sweep (the lower panels of Fig. 9/10).

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
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..network.params import LogGPSParams
from ..schedgen.graph import ExecutionGraph
from .critical_latency import critical_latency_curve, find_critical_latencies
from .graph_analysis import CriticalPathResult, analyze_critical_path
from .lp_builder import GraphLP, build_lp
from .parametric import BatchedSweep, ParametricAnalysis

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
    """Analyse the network-latency behaviour of one execution graph."""

    #: degradation levels highlighted throughout the paper (Fig. 1 / Fig. 9)
    DEFAULT_DEGRADATIONS = (0.01, 0.02, 0.05)

    def __init__(
        self,
        graph: ExecutionGraph,
        params: LogGPSParams,
        *,
        backend: str = "highs",
        gap_symbolic: bool = False,
        envelope_engine: str = "auto",
        cache_dir: str | os.PathLike | None = None,
    ) -> None:
        from ..schedgen.columnar import ScheduleBatches
        from .envelope import _check_engine_name

        _check_engine_name(envelope_engine)

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
        self.backend = backend
        self._gap_mode = "global" if gap_symbolic else "constant"
        self.envelope_engine = envelope_engine
        self._lp: GraphLP | None = None
        self._baseline_runtime: float | None = None
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
        :class:`~repro.schedgen.columnar.ScheduleBatches` spec; the LP is
        lowered batches → CSR directly, and a (zero-copy, analyze-only)
        execution graph only exists if something graph-shaped is requested.
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
        """The generated LP (built on first use, then cached and re-solved)."""
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

    def parametric(self, l_min: float = 0.0, l_max: float = 10_000.0) -> ParametricAnalysis:
        """The exact piecewise-linear ``T(L)`` curve on ``[l_min, l_max]``
        (one :func:`~repro.core.envelope.forward_envelope` traversal)."""
        from .envelope import forward_envelope

        envelope = forward_envelope(self.graph, self.params, l_min=l_min, l_max=l_max)
        return ParametricAnalysis(envelope=envelope, params=self.params, graph=self.graph)

    def batched_sweep(
        self, l_min: float | None = None, l_max: float = 10_000.0, **kwargs
    ) -> BatchedSweep:
        """A :class:`BatchedSweep` over the cached LP (assembled once).

        ``l_min`` defaults to the baseline latency.  The sweep reconstructs
        the exact ``T(L)`` curve from ``O(#breakpoints)`` LP solves instead
        of one cold solve per sweep point.

        With ``cache_dir=`` set on the analyzer, the envelope is served from
        the content-addressed :class:`~repro.artifacts.ArtifactStore`: on a
        hit the returned sweep wraps the stored curve and never builds,
        assembles or solves the LP at all (zero new CSR assemblies); on a
        miss the envelope is built once and persisted for the next caller.
        Store keys are engine-free and shared with
        :func:`~repro.core.parametric.batched_sweep_graphs` and the sweep
        pool (:func:`~repro.artifacts.envelope_key`): an envelope warmed by
        any of them is a hit for the others.
        """
        lo = self.params.L if l_min is None else l_min
        kwargs.setdefault("backend", self.backend)
        kwargs.setdefault("envelope_engine", self.envelope_engine)
        if self._store is None:
            return BatchedSweep(self.lp, l_min=lo, l_max=l_max, **kwargs)
        from ..artifacts import envelope_key

        config = {"gap_mode": self._gap_mode}
        if "max_pieces" in kwargs:
            config["max_pieces"] = kwargs["max_pieces"]
        key = envelope_key(self.graph, self.params, l_min=lo, l_max=l_max, **config)
        cached = self._store.get("envelope", key)
        if cached is not None:
            self._store.hits["envelope"] += 1
            return BatchedSweep.from_envelope(cached)
        sweep = BatchedSweep(self.lp, l_min=lo, l_max=l_max, **kwargs)
        self._store.misses["envelope"] += 1
        self._store.put("envelope", key, sweep.envelope)
        return sweep

    @classmethod
    def sweep_many(
        cls,
        graphs: Sequence[ExecutionGraph],
        params: LogGPSParams,
        *,
        l_min: float | None = None,
        l_max: float = 10_000.0,
        backend: str = "auto",
        max_pieces: int = 50_000,
        processes: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        envelope_engine: str = "auto",
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
            backend=backend,
            max_pieces=max_pieces,
            processes=processes,
            cache_dir=cache_dir,
            envelope_engine=envelope_engine,
            **build_kwargs,
        )
        return [BatchedSweep.from_envelope(envelope) for envelope in envelopes]

    # -- core metrics -------------------------------------------------------------

    def predict_runtime(self, delta_L: float = 0.0) -> float:
        """Predicted runtime (µs) with ``delta_L`` µs of added network latency."""
        if delta_L < 0:
            raise ValueError(f"delta_L must be non-negative, got {delta_L}")
        solution = self.lp.solve_runtime(L=self.params.L + delta_L, backend=self.backend)
        return solution.objective

    def baseline_runtime(self) -> float:
        """Predicted runtime at the baseline latency (cached)."""
        if self._baseline_runtime is None:
            self._baseline_runtime = self.predict_runtime(0.0)
        return self._baseline_runtime

    def latency_sensitivity(self, delta_L: float = 0.0) -> float:
        """``λ_L = ∂T/∂L`` at the given added latency (messages on the critical path)."""
        solution = self.lp.solve_runtime(L=self.params.L + delta_L, backend=self.backend)
        return self.lp.latency_sensitivity(solution)

    def l_ratio(self, delta_L: float = 0.0) -> float:
        """``ρ_L``: fraction of the predicted runtime attributable to network latency."""
        L = self.params.L + delta_L
        solution = self.lp.solve_runtime(L=L, backend=self.backend)
        runtime = solution.objective
        if runtime <= 0:
            return 0.0
        return L * self.lp.latency_sensitivity(solution) / runtime

    def bandwidth_sensitivity(self, delta_L: float = 0.0) -> float:
        """``λ_G = ∂T/∂G``: bytes (minus one per message) on the critical path."""
        if self._gap_mode != "global":
            raise ValueError(
                "build the analyzer with gap_symbolic=True to query bandwidth sensitivity"
            )
        solution = self.lp.solve_runtime(L=self.params.L + delta_L, backend=self.backend)
        return self.lp.gap_sensitivity(solution)

    # -- tolerance -----------------------------------------------------------------

    def latency_tolerance(self, degradation: float, *, absolute: bool = True) -> float:
        """Largest latency keeping the runtime within ``(1+degradation)·T₀``.

        ``absolute=True`` returns the total tolerable latency ``L`` (as in
        Fig. 1); ``absolute=False`` returns the tolerable *added* latency ΔL.
        A graph without messages does not depend on ``L`` at all: its
        tolerance is ``inf``.
        """
        if degradation < 0:
            raise ValueError(f"degradation must be non-negative, got {degradation}")
        if self.lp.num_messages == 0:
            return math.inf
        bound = (1.0 + degradation) * self.baseline_runtime()
        # reset the latency lower bound to the baseline before maximising
        self.lp.set_latency_bound(self.params.L)
        solution = self.lp.solve_max_latency(bound, backend=self.backend)
        tolerance = solution.objective
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

    def sensitivity_curve(
        self, delta_Ls: Iterable[float], *, engine: str = "lp"
    ) -> SensitivityCurve:
        """Sample runtime, ``λ_L`` and ``ρ_L`` over a ΔL sweep (Fig. 9 lower panels).

        ``engine="lp"`` cold-solves one LP per point (the paper's method);
        ``engine="batched"`` reconstructs the exact ``T(L)`` envelope with
        ``O(#breakpoints)`` solves and evaluates every point from it — same
        values, far fewer solver calls on dense sweeps.
        """
        deltas = np.asarray(sorted(set(float(d) for d in delta_Ls)), dtype=np.float64)
        if np.any(deltas < 0):
            raise ValueError("delta_L values must be non-negative")
        if engine not in ("lp", "batched"):
            raise ValueError(f"unknown sweep engine {engine!r}; expected 'lp' or 'batched'")
        Ls = self.params.L + deltas
        runtimes = np.zeros_like(deltas)
        lambdas = np.zeros_like(deltas)
        if engine == "batched" and deltas.size:
            span = float(Ls.max()) - float(Ls.min())
            sweep = self.batched_sweep(
                l_min=float(Ls.min()), l_max=float(Ls.max()) + max(span, 1.0) * 1e-9
            )
            runtimes = sweep.values(Ls)
            lambdas = sweep.sensitivities(Ls)
        else:
            for i, L in enumerate(Ls):
                solution = self.lp.solve_runtime(L=float(L), backend=self.backend)
                runtimes[i] = solution.objective
                lambdas[i] = self.lp.latency_sensitivity(solution)
        with np.errstate(divide="ignore", invalid="ignore"):
            rhos = np.where(runtimes > 0, Ls * lambdas / runtimes, 0.0)
        return SensitivityCurve(
            delta_L=deltas, runtime=runtimes, latency_sensitivity=lambdas, l_ratio=rhos
        )

    def critical_latencies(
        self, l_min: float | None = None, l_max: float = 1_000.0, *, step: float | None = None
    ) -> list[float]:
        """Critical latencies in ``[l_min, l_max]`` (Algorithm 2)."""
        lo = self.params.L if l_min is None else l_min
        if self.envelope_engine != "lp" and self._lp is None:
            # forward engine on the raw graph: no LP is ever assembled
            return find_critical_latencies(
                self.graph, lo, l_max, step=step, params=self.params,
                envelope_engine=self.envelope_engine,
            )
        return find_critical_latencies(
            self.lp, lo, l_max, backend=self.backend, step=step,
            envelope_engine=self.envelope_engine,
        )

    def critical_latency_curve(self, l_min: float | None = None, l_max: float = 1_000.0):
        """One :class:`~repro.lp.parametric.Tangent` per linear segment of ``T(L)``.

        Runs the shared tangent-envelope search once on the cached LP; the
        per-segment tangents are reconstructed from its cache without any
        additional LP solves at the segment mid-points.
        """
        lo = self.params.L if l_min is None else l_min
        if self.envelope_engine != "lp" and self._lp is None:
            return critical_latency_curve(
                self.graph, lo, l_max, params=self.params,
                envelope_engine=self.envelope_engine,
            )
        return critical_latency_curve(
            self.lp, lo, l_max, backend=self.backend,
            envelope_engine=self.envelope_engine,
        )

    # -- reporting ----------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """One-line summary used by the CLI and the examples."""
        report = self.tolerance_report()
        lam = self.latency_sensitivity()
        return {
            "nranks": self.graph.nranks,
            "events": self.graph.num_events,
            "messages": self.graph.num_messages,
            "runtime_us": report.baseline_runtime,
            "lambda_L": lam,
            "rho_L": self.l_ratio(),
            "tolerance_1pct_us": report.tolerance(0.01),
            "tolerance_2pct_us": report.tolerance(0.02),
            "tolerance_5pct_us": report.tolerance(0.05),
        }
