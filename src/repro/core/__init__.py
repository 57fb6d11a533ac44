"""LLAMP core: LP generation, sensitivity/tolerance analysis, parametric engine."""

from .analyzer import LatencyAnalyzer, SensitivityCurve, ToleranceReport
from .critical_latency import Tangent, critical_latency_curve, find_critical_latencies
from .envelope import forward_envelope, forward_incompatibility, resolve_envelope_engine
from .graph_analysis import CriticalPathResult, analyze_critical_path, forward_pass
from .lp_builder import GraphLP, build_lp
from .parametric import (
    BatchedSweep,
    EnvelopeOverflowError,
    Line,
    ParametricAnalysis,
    PiecewiseLinear,
    batched_sweep_graphs,
)

__all__ = [
    "LatencyAnalyzer",
    "SensitivityCurve",
    "ToleranceReport",
    "GraphLP",
    "build_lp",
    "CriticalPathResult",
    "analyze_critical_path",
    "forward_pass",
    "ParametricAnalysis",
    "PiecewiseLinear",
    "Line",
    "BatchedSweep",
    "batched_sweep_graphs",
    "EnvelopeOverflowError",
    "find_critical_latencies",
    "critical_latency_curve",
    "Tangent",
    "forward_envelope",
    "forward_incompatibility",
    "resolve_envelope_engine",
]
