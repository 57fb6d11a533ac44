"""Critical latencies: where the critical path (and ``λ_L``) changes.

Section II-B defines the *critical latency* ``L_c`` as a value of the network
latency at which the critical path of the execution graph switches, i.e. a
breakpoint of the piecewise-linear convex function ``T(L)``.  Algorithm 2 of
the paper sweeps an interval ``[L_min, L_max]`` from above, repeatedly
solving the LP and jumping to the lower end of the current basis's
feasibility range (Gurobi's ``SALBLow``).

The open-source HiGHS backend does not expose ranging information, so the
breakpoints are recovered with the shared tangent-envelope search of
:class:`repro.lp.parametric.ParametricLP` — ``O(#breakpoints)`` LP solves on
one assembled model, the same complexity class as Algorithm 2 with exact
ranging and strictly better than a fixed ``step`` sweep.  A ``step``
argument is still accepted for compatibility with the paper's interface:
when given, breakpoints closer than ``step`` are coalesced.

With ``envelope_engine="forward"`` (or ``"auto"``, whenever the affinity
contract of ``src/repro/lp/README.md`` holds) the breakpoints come from the
single-traversal line propagation of :mod:`repro.core.envelope` instead —
the same exact curve with zero LP solves.

Both functions here are thin wrappers; the searches themselves live in
:mod:`repro.lp.parametric` / :mod:`repro.core.envelope` and are shared with
:class:`repro.core.parametric.BatchedSweep`.
"""

from __future__ import annotations

from ..lp.parametric import Tangent, TangentEnvelope
from ..network.params import LogGPSParams
from ..schedgen.graph import ExecutionGraph
from .envelope import validate_interval
from .lp_builder import GraphLP, build_lp

__all__ = ["Tangent", "find_critical_latencies", "critical_latency_curve"]


def _as_graph_lp(
    graph_lp: GraphLP | ExecutionGraph,
    params: LogGPSParams | None,
    engine: str,
) -> GraphLP:
    """Accept either a prebuilt :class:`GraphLP` or a raw execution graph.

    Passing an :class:`ExecutionGraph` (plus ``params``) builds the LP on the
    fly through the selected construction ``engine`` — the knob that picks
    between the symbolic per-vertex sweep and the vectorised compiler of
    :mod:`repro.lp.compiler`.
    """
    if isinstance(graph_lp, ExecutionGraph):
        if params is None:
            raise ValueError(
                "passing an ExecutionGraph requires the params= keyword"
            )
        return build_lp(graph_lp, params, latency_mode="global", engine=engine)
    return graph_lp


def _collect_breakpoints(breakpoints, step: float | None) -> list[float]:
    collected = sorted(set(round(bp, 12) for bp in breakpoints))
    if step is not None and step > 0 and collected:
        coalesced = [collected[0]]
        for bp in collected[1:]:
            if bp - coalesced[-1] >= step:
                coalesced.append(bp)
        collected = coalesced
    return collected


def _forward_piecewise(
    graph_lp: GraphLP | ExecutionGraph,
    params: LogGPSParams | None,
    engine: str,
    envelope_engine: str,
    l_min: float,
    l_max: float,
):
    """The envelope as a :class:`PiecewiseLinear` when the forward engine
    applies, else ``None`` (caller falls back to the tangent search).

    A raw :class:`ExecutionGraph` under ``"auto"``/``"forward"`` never
    builds an LP at all; a prebuilt :class:`GraphLP` goes through
    :func:`~repro.core.envelope.resolve_envelope_engine` so the affinity
    contract is honoured (and violations raise for ``"forward"``).
    """
    from .envelope import _check_engine_name, forward_envelope, resolve_envelope_engine

    _check_engine_name(envelope_engine)
    if envelope_engine == "lp":
        return None
    if isinstance(graph_lp, ExecutionGraph):
        if params is None:
            raise ValueError(
                "passing an ExecutionGraph requires the params= keyword"
            )
        return forward_envelope(graph_lp, params, l_min=l_min, l_max=l_max)
    if resolve_envelope_engine(envelope_engine, graph_lp) == "forward":
        return forward_envelope(
            graph_lp.graph, graph_lp.params, l_min=l_min, l_max=l_max
        )
    return None


def find_critical_latencies(
    graph_lp: GraphLP | ExecutionGraph,
    l_min: float,
    l_max: float,
    *,
    backend: str = "highs",
    step: float | None = None,
    max_solves: int = 10_000,
    params: LogGPSParams | None = None,
    engine: str = "auto",
    envelope_engine: str = "auto",
) -> list[float]:
    """All critical latencies of ``graph_lp`` inside ``[l_min, l_max]``.

    ``step``, when given, coalesces breakpoints closer than ``step`` (the
    resolution knob of the paper's Algorithm 2); ``max_solves`` bounds the
    number of LP solves.  ``graph_lp`` may also be a raw
    :class:`~repro.schedgen.graph.ExecutionGraph` together with ``params=``;
    the LP is then built through the selected construction ``engine``.
    ``envelope_engine`` picks how the envelope is recovered — the forward
    line propagation (no LP solves) or the LP tangent search; both return
    the identical breakpoints.
    """
    validate_interval(l_min, l_max)
    piecewise = _forward_piecewise(
        graph_lp, params, engine, envelope_engine, l_min, l_max
    )
    if piecewise is not None:
        return _collect_breakpoints(piecewise.breakpoints(), step)
    graph_lp = _as_graph_lp(graph_lp, params, engine)
    result = graph_lp.tangent_envelope(l_min, l_max, backend=backend, max_solves=max_solves)
    return _collect_breakpoints(result.breakpoints, step)


def critical_latency_curve(
    graph_lp: GraphLP | ExecutionGraph,
    l_min: float,
    l_max: float,
    *,
    backend: str = "highs",
    max_solves: int = 10_000,
    params: LogGPSParams | None = None,
    engine: str = "auto",
    envelope_engine: str = "auto",
) -> list[Tangent]:
    """Tangents of ``T(L)`` on every linear segment of ``[l_min, l_max]``.

    Returns one :class:`Tangent` per segment (anchored at the segment
    mid-point), which is enough to reconstruct the exact ``T(L)`` curve and
    the step function ``λ_L(L)`` over the interval.  The segment tangents are
    served from the cache of the single envelope search — no additional LP
    solves at the segment mid-points.  Accepts a raw execution graph (plus
    ``params=`` / ``engine=``) like :func:`find_critical_latencies`, and the
    same ``envelope_engine`` knob.
    """
    validate_interval(l_min, l_max)
    piecewise = _forward_piecewise(
        graph_lp, params, engine, envelope_engine, l_min, l_max
    )
    if piecewise is not None:
        points = _collect_breakpoints(piecewise.breakpoints(), None)
        boundaries = [l_min, *points, l_max]
        return [
            Tangent(
                L=0.5 * (lo + hi),
                value=piecewise.value(0.5 * (lo + hi)),
                slope=piecewise.slope(0.5 * (lo + hi)),
            )
            for lo, hi in zip(boundaries, boundaries[1:])
        ]
    graph_lp = _as_graph_lp(graph_lp, params, engine)
    result = graph_lp.tangent_envelope(l_min, l_max, backend=backend, max_solves=max_solves)
    points = _collect_breakpoints(result.breakpoints, None)
    boundaries = [l_min, *points, l_max]
    return [
        result.segment_tangent(0.5 * (lo + hi))
        for lo, hi in zip(boundaries, boundaries[1:])
    ]
