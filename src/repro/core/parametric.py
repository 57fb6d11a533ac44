"""Exact parametric critical-path analysis: the full ``T(L)`` curve at once.

Equation 3 of the paper writes the runtime of an MPI program under LogGPS as

.. math:: T(L) = \\max_i (a_i L + C_i)

where each term corresponds to one path through the execution graph
(``a_i`` = number of communication edges, ``C_i`` = all other costs).  The
paper notes that materialising this expression by dynamic programming is
intractable in their C++ implementation; here it is an *upper-envelope*
representation — only the lines that are maximal somewhere in the latency
interval of interest are kept — computed exactly in one graph traversal
(:func:`repro.core.envelope.forward_envelope`), or from LP tangents for LPs
outside the forward pass's affinity contract (:meth:`BatchedSweep.lp_envelope`).

The resulting :class:`PiecewiseLinear` envelope directly yields every
quantity the paper extracts from LP re-solves:

* ``T(L)``                      — :meth:`PiecewiseLinear.value`;
* ``λ_L(L)``                    — :meth:`PiecewiseLinear.slope`;
* all critical latencies        — :meth:`PiecewiseLinear.breakpoints`;
* the x% latency tolerance      — :meth:`ParametricAnalysis.latency_tolerance`;
* the feasibility range of a
  given ``L`` (Gurobi's ranging) — :meth:`PiecewiseLinear.segment_of`.

:class:`ParametricAnalysis` wraps an envelope with the baseline
parameters (``LatencyAnalyzer.parametric()``); every metric of
:class:`~repro.core.analyzer.LatencyAnalyzer` is read through it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..lp.parametric import EnvelopeOverflowError, ParametricLP
from ..network.params import LogGPSParams
from ..schedgen.graph import ExecutionGraph

__all__ = [
    "Line",
    "PiecewiseLinear",
    "ParametricAnalysis",
    "EnvelopeOverflowError",
    "BatchedSweep",
    "batched_sweep_graphs",
]


@dataclass(frozen=True)
class Line:
    """A line ``f(L) = slope * L + intercept``; the slope counts messages."""

    slope: float
    intercept: float

    def __call__(self, x: float) -> float:
        return self.slope * x + self.intercept


def _upper_envelope(lines: Sequence[Line], lo: float, hi: float) -> list[Line]:
    """Keep only the lines that are maximal somewhere in ``[lo, hi]``."""
    if not lines:
        return []
    # group by slope, keeping the largest intercept
    best: dict[float, float] = {}
    for line in lines:
        previous = best.get(line.slope)
        if previous is None or line.intercept > previous:
            best[line.slope] = line.intercept
    ordered = [Line(slope, intercept) for slope, intercept in sorted(best.items())]
    if len(ordered) == 1:
        return ordered

    hull: list[Line] = []
    for line in ordered:
        while hull:
            last = hull[-1]
            if len(hull) == 1:
                # `last` is dominated on [lo, hi] iff the new (steeper) line is
                # already above it at lo
                if line(lo) >= last(lo):
                    hull.pop()
                    continue
                break
            prev = hull[-2]
            # intersection of `prev` and `line`
            x_new = (line.intercept - prev.intercept) / (prev.slope - line.slope)
            x_old = (last.intercept - prev.intercept) / (prev.slope - last.slope)
            if x_new <= x_old:
                hull.pop()
                continue
            break
        hull.append(line)

    # clip to the domain: drop pieces whose validity interval misses [lo, hi]
    clipped: list[Line] = []
    for idx, line in enumerate(hull):
        start = lo if idx == 0 else _intersection(hull[idx - 1], line)
        end = hi if idx == len(hull) - 1 else _intersection(line, hull[idx + 1])
        if end < lo - 1e-15 or start > hi + 1e-15:
            continue
        clipped.append(line)
    return clipped if clipped else [max(hull, key=lambda ln: ln(lo))]


def _intersection(a: Line, b: Line) -> float:
    return (b.intercept - a.intercept) / (a.slope - b.slope)


@dataclass
class PiecewiseLinear:
    """A convex, non-decreasing piecewise-linear function of the latency ``L``."""

    lines: list[Line]
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lines:
            raise ValueError("a piecewise-linear function needs at least one line")
        self.lines = sorted(self.lines, key=lambda ln: ln.slope)
        self._hull_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- evaluation ------------------------------------------------------------

    def value(self, x: float) -> float:
        """``T(x)`` — the maximum over all pieces."""
        return max(line(x) for line in self.lines)

    def slope(self, x: float) -> float:
        """``λ_L`` at ``x`` — the slope of the active piece.

        At a breakpoint the slope from *above* is returned (the larger one),
        matching the convention of the reduced cost when approached from the
        right.
        """
        best_value = self.value(x)
        best_slope = 0.0
        for line in self.lines:
            if abs(line(x) - best_value) <= 1e-9 * max(1.0, abs(best_value)) + 1e-12:
                best_slope = max(best_slope, line.slope)
        return best_slope

    def _hull_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(slopes, intercepts, breakpoints)`` arrays of the hull.

        The breakpoints are the *unclamped* intersections of consecutive
        pieces (strictly increasing by the hull construction), so a single
        ``searchsorted`` maps any ``x`` to its active piece.
        """
        if self._hull_cache is None:
            slopes = np.array([ln.slope for ln in self.lines], dtype=np.float64)
            intercepts = np.array([ln.intercept for ln in self.lines], dtype=np.float64)
            bps = np.array(
                [_intersection(a, b) for a, b in zip(self.lines, self.lines[1:])],
                dtype=np.float64,
            )
            self._hull_cache = (slopes, intercepts, bps)
        return self._hull_cache

    def slopes(self, xs: Iterable[float]) -> np.ndarray:
        """Vectorised :meth:`slope` over a sweep of latencies.

        One ``np.searchsorted`` against the cached breakpoints locates the
        active piece of every query, then indices are bumped rightwards while
        the next piece ties within the scalar path's tolerance — reproducing
        the slope-from-above convention (and its tolerance) bit for bit.
        """
        xs = np.asarray(list(xs), dtype=np.float64)
        slopes, intercepts, bps = self._hull_arrays()
        idx = np.searchsorted(bps, xs, side="right")
        best = slopes[idx] * xs + intercepts[idx]
        tol = 1e-9 * np.maximum(1.0, np.abs(best)) + 1e-12
        n = len(slopes)
        while True:
            nxt = np.minimum(idx + 1, n - 1)
            cand = slopes[nxt] * xs + intercepts[nxt]
            bump = (idx + 1 < n) & (np.abs(cand - best) <= tol)
            if not bump.any():
                break
            idx = np.where(bump, idx + 1, idx)
        return np.maximum(slopes[idx], 0.0)

    def breakpoints(self) -> list[float]:
        """The critical latencies inside ``(lo, hi)`` where the slope changes."""
        points = []
        for a, b in zip(self.lines, self.lines[1:]):
            x = _intersection(a, b)
            if self.lo < x < self.hi:
                points.append(x)
        return points

    def segment_of(self, x: float) -> tuple[float, float]:
        """Feasibility range ``[L_fl, L_fu]`` of ``x``: the active segment."""
        best_value = self.value(x)
        active = max(
            (line for line in self.lines
             if abs(line(x) - best_value) <= 1e-9 * max(1.0, abs(best_value)) + 1e-12),
            key=lambda ln: ln.slope,
        )
        idx = self.lines.index(active)
        lower = self.lo if idx == 0 else _intersection(self.lines[idx - 1], active)
        upper = self.hi if idx == len(self.lines) - 1 else _intersection(active, self.lines[idx + 1])
        return (lower, upper)

    def solve_for_value(self, target: float) -> float:
        """Largest ``x`` in ``[lo, hi]`` with ``value(x) <= target``.

        Used for the latency-tolerance query.  Returns ``hi`` if the whole
        interval satisfies the bound — always so when the steepest piece is
        flat, e.g. on ``[lo, inf)`` for a graph without messages — and
        raises if even ``lo`` violates it.  No line is ever evaluated at an
        infinite ``hi``.
        """
        if self.value(self.lo) > target + 1e-12:
            raise ValueError(
                f"runtime bound {target} is below the runtime at L={self.lo}"
            )
        if self.lines[-1].slope <= 0 or (
            math.isfinite(self.hi) and self.value(self.hi) <= target
        ):
            return self.hi
        # the active piece at the crossing has positive slope
        best = self.lo
        for line in self.lines:
            if line.slope <= 0:
                continue
            x = (target - line.intercept) / line.slope
            if x < self.lo:
                continue
            x = min(x, self.hi)
            if self.value(x) <= target + 1e-9 * max(1.0, abs(target)):
                best = max(best, x)
        return best

    def sample(self, xs: Iterable[float]) -> np.ndarray:
        """Vectorised evaluation over a sequence of latencies."""
        xs = np.asarray(list(xs), dtype=np.float64)
        slopes = np.array([line.slope for line in self.lines])
        intercepts = np.array([line.intercept for line in self.lines])
        return (xs[:, None] * slopes[None, :] + intercepts[None, :]).max(axis=1)


@dataclass
class ParametricAnalysis:
    """The full parametric picture of one execution graph."""

    envelope: PiecewiseLinear
    params: LogGPSParams
    graph: ExecutionGraph

    def runtime(self, L: float | None = None) -> float:
        """``T(L)``; defaults to the baseline latency of ``params``."""
        return self.envelope.value(self.params.L if L is None else L)

    def latency_sensitivity(self, L: float | None = None) -> float:
        """``λ_L`` at ``L``."""
        return self.envelope.slope(self.params.L if L is None else L)

    def l_ratio(self, L: float | None = None) -> float:
        """``ρ_L``: fraction of the critical path attributable to latency."""
        x = self.params.L if L is None else L
        t = self.envelope.value(x)
        if t <= 0:
            return 0.0
        return x * self.envelope.slope(x) / t

    def critical_latencies(self) -> list[float]:
        """All critical latencies in the analysed interval."""
        return self.envelope.breakpoints()

    def latency_tolerance(self, degradation: float, baseline_L: float | None = None) -> float:
        """Maximum ``L`` keeping the runtime within ``(1 + degradation)·T(L₀)``."""
        from .envelope import check_nonnegative

        check_nonnegative(degradation, "degradation", "latency_tolerance")
        base = self.params.L if baseline_L is None else baseline_L
        bound = (1.0 + degradation) * self.envelope.value(base)
        return self.envelope.solve_for_value(bound)

    def feasibility_range(self, L: float | None = None) -> tuple[float, float]:
        """The range of ``L`` over which the critical path does not change."""
        return self.envelope.segment_of(self.params.L if L is None else L)


# ---------------------------------------------------------------------------
# batched LP sweeps
# ---------------------------------------------------------------------------


class BatchedSweep:
    """The exact ``T(L)`` curve of one LP over a latency interval.

    On every LP that satisfies the affinity contract of
    ``src/repro/lp/README.md`` (the latency-global LPs the analyzer and the
    sweep helpers build) the envelope comes from the single-traversal
    :func:`~repro.core.envelope.forward_envelope`: no LP is assembled or
    solved.  An LP outside the contract — per-pair HLogGP variables, moved
    gap/overhead bounds — is answered by :meth:`lp_envelope`, the
    ``ParametricLP`` tangent search, which also serves as the test oracle:

    1. only the lower bound of the latency variable changes between probes,
       so the CSR lowering (:mod:`repro.lp.assembler`) is built once and
       every re-solve just refreshes the bounds vector;
    2. ``T(L)`` is convex piecewise linear, and each solve at ``L`` returns
       the *tangent* of the curve — the value ``T(L)`` and the slope ``λ_L``
       (reduced cost of ``l``) — so recursing on tangent intersections
       discovers every linear segment with ``O(#breakpoints)`` LP solves.

    Either way the result is exact, and any number of sweep points is then
    evaluated from the envelope without touching a solver.

    Parameters
    ----------
    graph_lp:
        A :class:`~repro.core.lp_builder.GraphLP` built with
        ``latency_mode="global"``.
    l_min, l_max:
        The latency interval swept.
    backend:
        Backend name from the default registry for the tangent search
        (``"auto"`` picks the dense simplex for tiny models, HiGHS
        otherwise).
    max_pieces:
        Guard against pathological envelope growth: discovering more than
        this many linear segments raises :class:`EnvelopeOverflowError`.
    max_solves:
        Hard bound on the number of LP solves of the tangent search.
    """

    def __init__(
        self,
        graph_lp,
        *,
        l_min: float = 0.0,
        l_max: float = 10_000.0,
        backend: str = "auto",
        max_pieces: int = 50_000,
        max_solves: int = 10_000,
    ) -> None:
        if graph_lp.latency is None:
            raise ValueError(
                "BatchedSweep requires a GraphLP built with latency_mode='global'"
            )
        if l_min < 0 or l_max <= l_min:
            raise ValueError(f"invalid latency interval [{l_min}, {l_max}]")
        if max_pieces < 1:
            raise ValueError(f"max_pieces must be positive, got {max_pieces}")
        self.graph_lp = graph_lp
        self.l_min = float(l_min)
        self.l_max = float(l_max)
        self.backend = backend
        self.max_pieces = max_pieces
        self.max_solves = max_solves
        self.num_solves = 0
        self._envelope: PiecewiseLinear | None = None

    @classmethod
    def from_envelope(cls, envelope: PiecewiseLinear) -> "BatchedSweep":
        """Wrap an already-built envelope (e.g. loaded from an artifact store).

        The returned sweep answers every query from the envelope without a
        model: ``graph_lp`` is ``None``, ``num_solves`` is 0 and no LP is
        ever assembled or solved.
        """
        sweep = cls.__new__(cls)
        sweep.graph_lp = None
        sweep.l_min = float(envelope.lo)
        sweep.l_max = float(envelope.hi)
        sweep.backend = "cached"
        sweep.max_pieces = max(len(envelope.lines), 1)
        sweep.max_solves = 0
        sweep.num_solves = 0
        sweep._envelope = envelope
        return sweep

    # -- envelope construction -------------------------------------------------

    def _build_envelope(self) -> PiecewiseLinear:
        from .envelope import forward_envelope, resolve_envelope_engine

        # "auto" is the only request: the LP alone decides the engine
        if (
            self.graph_lp is not None
            and resolve_envelope_engine("auto", self.graph_lp) == "forward"
        ):
            return forward_envelope(
                self.graph_lp.graph,
                self.graph_lp.params,
                l_min=self.l_min,
                l_max=self.l_max,
                max_pieces=self.max_pieces,
            )
        return self.lp_envelope()

    def lp_envelope(self) -> PiecewiseLinear:
        """The envelope from the ``ParametricLP`` tangent search.

        Runs the LP search whatever the LP (``num_solves`` counts its
        solves): the engine behind LPs outside the affinity contract, and
        the oracle the forward pass is verified against.  Does not replace
        :attr:`envelope`.
        """
        if self.graph_lp is None:
            raise ValueError(
                "this BatchedSweep was restored from a cached envelope and "
                "has no model to solve"
            )
        engine = ParametricLP(
            self.graph_lp.model, backend=self.backend, max_solves=self.max_solves
        )
        try:
            result = self.graph_lp.tangent_envelope(
                self.l_min, self.l_max, max_pieces=self.max_pieces, engine=engine
            )
        finally:
            # keep the solve count observable even when the search overflows
            self.num_solves = engine.num_solves

        lines = [Line(t.slope, t.intercept) for t in result.tangents]
        env = _upper_envelope(lines, self.l_min, self.l_max)
        if len(env) > self.max_pieces:
            raise EnvelopeOverflowError(
                f"latency sweep envelope has {len(env)} pieces (> {self.max_pieces})"
            )
        return PiecewiseLinear(lines=env, lo=self.l_min, hi=self.l_max)

    @property
    def envelope(self) -> PiecewiseLinear:
        """The exact ``T(L)`` curve on ``[l_min, l_max]`` (built lazily)."""
        if self._envelope is None:
            self._envelope = self._build_envelope()
        return self._envelope

    # -- queries -----------------------------------------------------------------

    def value(self, L: float) -> float:
        """``T(L)``."""
        return self.envelope.value(L)

    def slope(self, L: float) -> float:
        """``λ_L`` at ``L`` (slope from above at breakpoints)."""
        return self.envelope.slope(L)

    def values(self, Ls: Iterable[float]) -> np.ndarray:
        """Vectorised ``T`` over a sweep of latencies."""
        return self.envelope.sample(Ls)

    def sensitivities(self, Ls: Iterable[float]) -> np.ndarray:
        """``λ_L`` over a sweep of latencies (vectorised; see
        :meth:`PiecewiseLinear.slopes`)."""
        return self.envelope.slopes(Ls)

    def breakpoints(self) -> list[float]:
        """All critical latencies inside ``(l_min, l_max)``."""
        return self.envelope.breakpoints()

    def latency_tolerance(self, runtime_bound: float) -> float:
        """Largest ``L`` in the interval with ``T(L) <= runtime_bound``."""
        return self.envelope.solve_for_value(runtime_bound)


def _fresh_envelope(
    graph, params, l_min, l_max, backend, max_pieces, build_kwargs
) -> PiecewiseLinear:
    """The envelope of a fresh ``build_lp(graph, params, **build_kwargs)``.

    Modes in which a fresh LP is always forward-compatible skip the LP build
    altogether; any other modes build the LP and let :class:`BatchedSweep`
    pick the engine.  Shared by the serial sweeps and the pool workers.
    """
    from .envelope import forward_envelope, forward_supports_modes

    if forward_supports_modes(build_kwargs):
        return forward_envelope(
            graph, params, l_min=l_min, l_max=l_max, max_pieces=max_pieces
        )
    from .lp_builder import build_lp

    return BatchedSweep(
        build_lp(graph, params, **build_kwargs),
        l_min=l_min,
        l_max=l_max,
        backend=backend,
        max_pieces=max_pieces,
    ).envelope


def _sweep_one_graph(job) -> PiecewiseLinear:
    graph, params, l_min, l_max, backend, max_pieces, cache_dir, build_kwargs = job

    def build() -> PiecewiseLinear:
        return _fresh_envelope(
            graph, params, l_min, l_max, backend, max_pieces, build_kwargs
        )

    if cache_dir is None:
        return build()
    from ..artifacts import ArtifactStore, envelope_key

    store = ArtifactStore(cache_dir)
    # the shared store key, equal to the analyzer's and the sweep pool's
    key = envelope_key(
        graph, params, l_min=l_min, l_max=l_max, max_pieces=max_pieces, **build_kwargs
    )
    return store.get_or_build_envelope(key, build)


def batched_sweep_graphs(
    graphs: Sequence[ExecutionGraph],
    params: LogGPSParams,
    *,
    l_min: float = 0.0,
    l_max: float = 10_000.0,
    backend: str = "auto",
    max_pieces: int = 50_000,
    processes: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    **build_kwargs,
) -> list[PiecewiseLinear]:
    """Batched sweeps of several independent graphs, optionally in parallel.

    Returns one exact ``T(L)`` envelope per graph.  Graphs are deduplicated
    by :meth:`~repro.schedgen.graph.ExecutionGraph.content_digest` before any
    LP is assembled — duplicates are solved once and the envelope is fanned
    out — whether or not a cache directory is configured.

    ``processes > 1`` fans the unique graphs out over a persistent
    :class:`~repro.parallel.SweepPool` of ``spawn`` workers: the graph
    columns are exported once into shared memory and workers attach
    zero-copy views instead of unpickling a private copy per task.  Anything
    else runs serially in-process.

    ``cache_dir`` (any path-like) points all paths at a shared
    :class:`~repro.artifacts.ArtifactStore`: each envelope is keyed by the
    graph/params content digests plus the sweep configuration, so repeated
    runs are answered from disk instead of re-building and re-assembling the
    LP.  The store's writes are atomic, so pool workers may race on a key
    safely.

    Each envelope comes from the forward pass unless ``build_kwargs`` ask
    for an LP outside its affinity contract (see :class:`BatchedSweep`).
    """
    cache_dir = None if cache_dir is None else os.fspath(cache_dir)
    from ..schedgen.columnar import ScheduleBatches

    # batch-column entries (fused callers) are materialised through the
    # zero-copy fused builder — never frozen — and then flow through the
    # digest dedupe / cache / pool machinery unchanged, since the fused
    # graph's content digest equals the frozen one's
    graphs = [
        graph.graph_for(params) if isinstance(graph, ScheduleBatches) else graph
        for graph in graphs
    ]
    if processes is not None and processes > 1 and len(graphs) > 1:
        from ..parallel.pool import SweepPool

        with SweepPool(min(processes, len(graphs)), cache_dir=cache_dir) as pool:
            return pool.sweep_graphs(
                graphs,
                params,
                l_min=l_min,
                l_max=l_max,
                backend=backend,
                max_pieces=max_pieces,
                **build_kwargs,
            )

    by_digest: dict[str, PiecewiseLinear] = {}
    envelopes: list[PiecewiseLinear] = []
    for graph in graphs:
        digest = graph.content_digest()
        envelope = by_digest.get(digest)
        if envelope is None:
            envelope = _sweep_one_graph(
                (graph, params, l_min, l_max, backend, max_pieces, cache_dir,
                 build_kwargs)
            )
            by_digest[digest] = envelope
        envelopes.append(envelope)
    return envelopes
