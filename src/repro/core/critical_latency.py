"""Critical latencies: where the critical path (and ``λ_L``) changes.

Section II-B defines the *critical latency* ``L_c`` as a value of the network
latency at which the critical path of the execution graph switches, i.e. a
breakpoint of the piecewise-linear convex function ``T(L)``.  Algorithm 2 of
the paper sweeps an interval ``[L_min, L_max]`` from above, repeatedly
solving the LP and jumping to the lower end of the current basis's
feasibility range (Gurobi's ``SALBLow``).

Here the breakpoints are read off the exact ``T(L)`` envelope instead.  A raw
execution graph plus ``params`` always goes through the single-traversal
:func:`~repro.core.envelope.forward_envelope` (zero LP solves).  A prebuilt
:class:`GraphLP` does too whenever it satisfies the affinity contract of
``src/repro/lp/README.md``; otherwise the breakpoints come from the tangent
search of :class:`repro.lp.parametric.ParametricLP` — ``O(#breakpoints)``
LP solves on one assembled model, the same complexity class as Algorithm 2
with exact ranging (HiGHS exposes no ranging information).  A ``step``
argument is still accepted for compatibility with the paper's interface:
when given, breakpoints closer than ``step`` are coalesced.
"""

from __future__ import annotations

from ..lp.parametric import Tangent
from ..network.params import LogGPSParams
from ..schedgen.graph import ExecutionGraph
from .envelope import validate_interval
from .lp_builder import GraphLP

__all__ = ["Tangent", "find_critical_latencies", "critical_latency_curve"]


def _collect_breakpoints(breakpoints, step: float | None) -> list[float]:
    collected = sorted(set(round(bp, 12) for bp in breakpoints))
    if step is not None and step > 0 and collected:
        coalesced = [collected[0]]
        for bp in collected[1:]:
            if bp - coalesced[-1] >= step:
                coalesced.append(bp)
        collected = coalesced
    return collected


def _segment_tangents(piecewise, l_min: float, l_max: float) -> list[Tangent]:
    """One :class:`Tangent` per linear segment of ``piecewise``, anchored at
    the segment mid-point."""
    points = _collect_breakpoints(piecewise.breakpoints(), None)
    boundaries = [l_min, *points, l_max]
    mids = [0.5 * (lo + hi) for lo, hi in zip(boundaries, boundaries[1:])]
    return [Tangent(L=x, value=piecewise.value(x), slope=piecewise.slope(x)) for x in mids]


def _forward_piecewise(
    graph_lp: GraphLP | ExecutionGraph,
    params: LogGPSParams | None,
    l_min: float,
    l_max: float,
):
    """The envelope as a :class:`PiecewiseLinear` when the forward engine
    applies, else ``None`` (the caller runs the tangent search)."""
    from .envelope import forward_envelope, resolve_envelope_engine

    if isinstance(graph_lp, ExecutionGraph):
        if params is None:
            raise ValueError(
                "passing an ExecutionGraph requires the params= keyword"
            )
        return forward_envelope(graph_lp, params, l_min=l_min, l_max=l_max)
    # "auto" is the only request: the LP alone decides the engine
    if resolve_envelope_engine("auto", graph_lp) == "forward":
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
) -> list[float]:
    """All critical latencies of ``graph_lp`` inside ``[l_min, l_max]``.

    ``graph_lp`` is a :class:`GraphLP` or a raw
    :class:`~repro.schedgen.graph.ExecutionGraph` together with ``params=``.
    ``step``, when given, coalesces breakpoints closer than ``step`` (the
    resolution knob of the paper's Algorithm 2); ``backend`` and
    ``max_solves`` apply to the tangent search of an LP outside the affinity
    contract.
    """
    validate_interval(l_min, l_max)
    piecewise = _forward_piecewise(graph_lp, params, l_min, l_max)
    if piecewise is not None:
        return _collect_breakpoints(piecewise.breakpoints(), step)
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
) -> list[Tangent]:
    """Tangents of ``T(L)`` on every linear segment of ``[l_min, l_max]``.

    Returns one :class:`Tangent` per segment (anchored at the segment
    mid-point), which is enough to reconstruct the exact ``T(L)`` curve and
    the step function ``λ_L(L)`` over the interval.  Accepts the same inputs
    as :func:`find_critical_latencies`; on the tangent-search path the
    segment tangents are served from the search cache — no additional LP
    solves at the segment mid-points.
    """
    validate_interval(l_min, l_max)
    piecewise = _forward_piecewise(graph_lp, params, l_min, l_max)
    if piecewise is not None:
        return _segment_tangents(piecewise, l_min, l_max)
    result = graph_lp.tangent_envelope(l_min, l_max, backend=backend, max_solves=max_solves)
    points = _collect_breakpoints(result.breakpoints, None)
    boundaries = [l_min, *points, l_max]
    return [
        result.segment_tangent(0.5 * (lo + hi))
        for lo, hi in zip(boundaries, boundaries[1:])
    ]
