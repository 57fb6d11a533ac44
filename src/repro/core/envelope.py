"""Exact ``T(L)`` envelopes: a tangent search over LP-semantics level passes.

Every edge cost of the LogGPS LP is *affine in the latency* ``L`` — a
communication edge costs ``l + (size-1)·G`` and everything else is a
constant — so the makespan ``T(L)`` is the upper envelope of per-path lines
``a_i·L + C_i`` (``a_i`` = number of messages on path ``i``): convex and
piecewise linear.  :func:`forward_envelope` recovers that curve with the
paper's Algorithm 2, probing tangents and refining where two tangents
cross, but a probe is a max-plus pass over the graph instead of an LP solve:

* **The probe.**  One pass over the simulator's cached level plan
  (:func:`~repro.simulator.columnar.get_level_plan`) with LP semantics —
  no NIC gap, every parameter but ``L`` folded from ``params`` — evaluates
  a batch of latencies at once, one latency per row of a 2-D pass.  Each
  row carries, per vertex, the ``(slope, const)`` of a maximal path, both
  accumulated along the path.  Paths are compared lexicographically by
  ``(value, slope, const)`` at a finite ``L``, so a probe on a kink returns
  the steeper adjacent piece, and by ``(slope, const)`` at ``L = ∞``, so
  ``[L₀, ∞)`` is exact with no large-``L`` guess.
* **The search.**  Round 1 probes ``lo`` and ``hi`` in one pass; every
  later round probes the crossing of every open tangent pair in one pass.
  A pair closes when its tangents coincide, when the crossing falls on one
  of its ends, or when the probe at the crossing lies on both tangents
  (the crossing is then a breakpoint).  These tests are
  :meth:`~repro.lp.parametric.ParametricLP.tangent_envelope`'s own
  (``_close`` with ``_ABS_TOL``/``_REL_TOL``), so the pieces and
  breakpoints are structurally identical to the LP oracle's, not only
  pointwise equal: zero-width pieces the oracle cannot see are not found.

**Cost.**  One level pass per search round, with one row per open pair:
``O(#pieces · (V + E))`` element work, the complexity class of the paper's
Algorithm 2.  Application graphs have 1–6 pieces and take a few passes
(one to four on the pipeline benchmark's graphs).  Graphs with many pieces
pay for each one.  On the synthetic
:func:`~repro.testing.build_staircase` graphs (``CSCS_TESTBED`` parameters,
``[0, 1e4]``, one 2-core Xeon host), against the single-traversal hull
propagation this engine replaced and the LP oracle
(``BatchedSweep(lp).lp_envelope()``, HiGHS):

==========================  ======  =========  ==============  =========
graph                       pieces  hull pass  tangent search  LP oracle
==========================  ======  =========  ==============  =========
``build_staircase(50)``         40     1.1 ms           11 ms      1.3 s
``build_staircase(100)``        90     2.8 ms           45 ms       12 s
``build_staircase(200)``       190     8.0 ms          244 ms      113 s
==========================  ======  =========  ==============  =========

On the application graphs it is the other way round: the hull pass spent
~40 NumPy calls per merge level whatever the hull width, and the tangent
search is 2–5× faster per graph, level plan included (e.g. MILC at 128
ranks, 312k vertices, 2 pieces: 1.7 s → 0.36 s).

The rows of one round are chunked so that a pass holds at most
:data:`_PASS_ELEMENTS` per-vertex entries in each state array, which keeps
the memory of a pass bounded at million-vertex scale.

The result equals the LP tangent envelope: at the LP optimum every symbolic
variable other than ``l`` sits at its lower bound (= the ``params`` value),
so folding those bounds as constants reproduces the optimal objective for
every ``L``.  The engine therefore requires the **affinity contract**
documented in ``src/repro/lp/README.md``: a global latency variable, no
per-pair HLogGP variables, and gap/overhead bounds that still equal
``params``.  A raw graph plus ``params`` always satisfies it; a prebuilt LP
that breaks it (see :func:`forward_incompatibility`) is answered by the
:class:`~repro.lp.parametric.ParametricLP` tangent search instead, which
also serves as the test oracle of this module.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

from ..lp.parametric import _ABS_TOL, EnvelopeOverflowError, _close
from ..network.params import LogGPSParams
from ..schedgen.graph import ExecutionGraph

__all__ = [
    "check_nonnegative",
    "forward_envelope",
    "forward_incompatibility",
    "resolve_envelope_engine",
    "forward_supports_modes",
]

#: per-vertex entries a probe pass may hold in each of its two state arrays
#: (slope and const); a round with more rows than fit runs as several passes
_PASS_ELEMENTS = 1 << 21


def validate_interval(l_min: float, l_max: float) -> None:
    """Reject a bad sweep interval up front, before any LP or traversal.

    Pinned by tests: a reversed, empty, negative or NaN interval must fail
    here with this message, never part-way through a search.  ``l_max`` may
    be ``inf``.
    """
    if not 0 <= l_min < l_max:
        raise ValueError(
            f"invalid latency interval [{l_min}, {l_max}]: "
            "require 0 <= l_min < l_max"
        )


def check_nonnegative(value, arg: str, func: str) -> None:
    """Reject a NaN, infinite or negative latency argument (scalar or
    sequence) with a message naming the argument and the function."""
    values = np.asarray(value, dtype=np.float64)
    bad = ~np.isfinite(values) | (values < 0)
    if bad.any():
        shown = float(values) if values.ndim == 0 else values[bad].tolist()
        raise ValueError(
            f"argument '{arg}' to {func}: must be finite and non-negative, "
            f"got {shown!r}"
        )


# ---------------------------------------------------------------------------
# engine resolution / affinity contract
# ---------------------------------------------------------------------------


def forward_incompatibility(graph_lp) -> str | None:
    """Why the forward engine cannot reproduce this LP's envelope.

    Returns ``None`` when the forward pass is exact for ``graph_lp`` —
    i.e. the LP satisfies the affinity contract (``T(L)`` depends on the
    single global latency variable only, every other symbolic bound still
    equals its ``params`` value).  Otherwise returns a human-readable
    reason, and the envelope comes from the :class:`ParametricLP` tangent
    search.
    """
    if graph_lp.latency is None:
        return (
            "the LP has no global latency variable "
            "(per-pair or constant latency mode)"
        )
    if graph_lp.pair_latency or graph_lp.pair_gap:
        return (
            "per-pair HLogGP variables break the single-parameter affinity "
            "in L"
        )
    if getattr(graph_lp, "graph", None) is None:
        return "the LP carries no execution graph to traverse"
    params = graph_lp.params
    gap = graph_lp.gap
    if gap is not None:
        lb = graph_lp.model.variables[gap.index].lb
        if lb != params.G:
            return (
                f"the gap lower bound ({lb}) was moved away from "
                f"params.G ({params.G})"
            )
    overhead = graph_lp.overhead
    if overhead is not None:
        lb = graph_lp.model.variables[overhead.index].lb
        if lb != params.o:
            return (
                f"the overhead lower bound ({lb}) was moved away from "
                f"params.o ({params.o})"
            )
    return None


def resolve_envelope_engine(engine: str, graph_lp) -> str:
    """The envelope engine for ``graph_lp``: ``"forward"`` when
    :func:`forward_incompatibility` finds nothing, ``"lp"`` otherwise.

    ``engine`` is always ``"auto"``: the choice is made from the LP alone.
    The parameter stays, positional and first, because the pipeline
    benchmark's tracer (``perfbench/spans.py``) wraps this function by name
    and reads ``args[0]`` to count LP fallbacks.
    """
    return "forward" if forward_incompatibility(graph_lp) is None else "lp"


def forward_supports_modes(build_kwargs: Mapping[str, object]) -> bool:
    """Whether a *fresh* ``build_lp(graph, params, **build_kwargs)`` would be
    forward-compatible.

    Lets sweep jobs skip the LP build entirely: a freshly built LP has every
    symbolic lower bound at its ``params`` value, so the affinity contract
    reduces to the mode knobs alone.  Unknown keywords conservatively
    disqualify the shortcut (the LP path will surface any real error).
    """
    known = {"latency_mode", "gap_mode", "overhead_mode", "name", "engine"}
    if any(key not in known for key in build_kwargs):
        return False
    return (
        build_kwargs.get("latency_mode", "global") == "global"
        and build_kwargs.get("gap_mode", "constant") in ("constant", "global")
        and build_kwargs.get("overhead_mode", "constant") in ("constant", "global")
    )


# ---------------------------------------------------------------------------
# the probe: one LP-semantics level pass, one row per latency
# ---------------------------------------------------------------------------


def _lex_max(slope, const, lw, cw, starts, seg):
    """Per row and segment, the lexicographically largest ``(key, slope,
    const)`` entry, with ``key = slope·lw + const·cw``.

    ``starts`` are the segment starts along axis 1 and ``seg`` the segment
    of every column.  Returns the winners' ``(slope, const)``.
    """
    key = slope * lw
    key += const * cw
    top = np.maximum.reduceat(key, starts, axis=1)
    slope = np.where(key == top.take(seg, axis=1), slope, -np.inf)
    best_slope = np.maximum.reduceat(slope, starts, axis=1)
    const = np.where(slope == best_slope.take(seg, axis=1), const, -np.inf)
    return best_slope, np.maximum.reduceat(const, starts, axis=1)


def _probe(plan, e_const, e_seg, sinks, latencies):
    """The maximal path of ``T`` at every latency, in one level pass.

    Row ``r`` of the pass evaluates ``L = latencies[r]`` on the level plan
    with LP semantics: a vertex ends ``plan.vcost`` after its latest
    predecessor contribution, and a communication edge adds ``L`` plus its
    folded byte cost ``e_const`` (``e_seg`` maps every edge to its
    segment, i.e. its destination).  Per vertex a row carries the exact
    ``(slope, const)`` of its maximal path, chosen by ``(value, slope,
    const)`` at a finite ``L`` and by ``(slope, const)`` at ``L = inf``.
    Returns the ``(slope, const)`` of the maximal path ending at one of the
    ``sinks`` (level positions), one entry per row.
    """
    finite = np.isfinite(latencies)
    # the primary key is the value slope·L + const at a finite L and the
    # slope alone at L = inf
    lw = np.where(finite, latencies, 1.0)[:, None]
    cw = finite.astype(np.float64)[:, None]
    n = len(plan.order)
    slope = np.empty((len(latencies), n))
    const = np.empty((len(latencies), n))
    vptr, eptr, sptr = plan.vptr.tolist(), plan.eptr.tolist(), plan.sptr.tolist()
    e_src, e_comm, vcost = plan.e_src_pos, plan.e_comm, plan.vcost
    for k in range(len(vptr) - 1):
        p0, p1 = vptr[k], vptr[k + 1]
        e0, e1 = eptr[k], eptr[k + 1]
        if e1 == e0:
            # level 0: the sources, the only vertices without predecessors
            slope[:, p0:p1] = 0.0
            const[:, p0:p1] = vcost[p0:p1]
            continue
        src = e_src[e0:e1]
        a = slope.take(src, axis=1)
        a += e_comm[e0:e1]
        c = const.take(src, axis=1)
        c += e_const[e0:e1]
        s0, s1 = sptr[k], sptr[k + 1]
        if s1 - s0 < e1 - e0:
            # some vertex of the level merges several in-edges
            a, c = _lex_max(
                a, c, lw, cw, plan.seg_starts[s0:s1] - e0, e_seg[e0:e1] - s0
            )
        slope[:, p0:p1] = a
        c += vcost[p0:p1]
        const[:, p0:p1] = c
    best_slope, best_const = _lex_max(
        slope.take(sinks, axis=1), const.take(sinks, axis=1), lw, cw,
        np.zeros(1, dtype=np.int64), np.zeros(len(sinks), dtype=np.int64),
    )
    return best_slope[:, 0], best_const[:, 0]


class _Tangent(NamedTuple):
    """One probe's answer: the line ``slope·x + const`` of the maximal path
    at latency ``L``."""

    L: float
    slope: float
    const: float

    def at(self, x: float) -> float:
        return self.slope * x + self.const


def _crossing(t_lo: _Tangent, t_hi: _Tangent) -> float | None:
    """Where to probe between two tangents, or ``None`` once the pair is
    closed (one line, or a breakpoint at one of its ends).

    The tests are :meth:`~repro.lp.parametric.ParametricLP.tangent_envelope`'s;
    a tangent at ``L = inf`` coincides with another when their slopes do.
    """
    finite = math.isfinite(t_hi.L)
    if _close(t_lo.slope, t_hi.slope) and (
        not finite or _close(t_lo.at(t_hi.L), t_hi.at(t_hi.L))
    ):
        return None
    if abs(t_hi.slope - t_lo.slope) <= _ABS_TOL:
        return None
    x = (t_lo.const - t_hi.const) / (t_hi.slope - t_lo.slope)
    x = min(max(x, t_lo.L), t_hi.L)
    if _close(x, t_lo.L) or (finite and _close(x, t_hi.L)):
        return None
    return x


def forward_envelope(
    graph: ExecutionGraph,
    params: LogGPSParams,
    *,
    l_min: float = 0.0,
    l_max: float = 10_000.0,
    max_pieces: int = 50_000,
):
    """The exact ``T(L)`` envelope of ``graph`` on ``[l_min, l_max]``, by a
    tangent search whose probes are batched level passes (no LP, no solver).

    All LogGPS parameters other than the latency are folded from ``params``
    as constants, exactly as the LP bakes them into its constraint constants
    (and as the optimum pins every symbolic bound).  Structurally identical
    to ``BatchedSweep(build_lp(graph, params), ...).lp_envelope()`` whenever
    the affinity contract holds — see this module's docstring and
    ``src/repro/lp/README.md``.  ``l_max`` may be ``inf``.

    ``max_pieces`` bounds the number of distinct slopes the search may find;
    overflow raises :class:`EnvelopeOverflowError` like the other
    parametric engines.
    """
    validate_interval(l_min, l_max)
    if max_pieces < 1:
        raise ValueError(f"max_pieces must be positive, got {max_pieces}")
    lo, hi = float(l_min), float(l_max)

    from ..simulator.columnar import get_level_plan
    from .parametric import Line, PiecewiseLinear, _upper_envelope

    plan = get_level_plan(graph, params)
    e_const = np.where(plan.e_comm, plan.e_bw * params.G, 0.0)
    e_seg = np.repeat(
        np.arange(len(plan.seg_starts)),
        np.diff(np.append(plan.seg_starts, len(e_const))),
    )
    sinks = graph.topo_positions()[graph.sinks()]
    rows = max(1, _PASS_ELEMENTS // graph.num_vertices)

    def probe(latencies: list[float]) -> list[_Tangent]:
        tangents = []
        for i in range(0, len(latencies), rows):
            batch = np.asarray(latencies[i:i + rows], dtype=np.float64)
            slope, const = _probe(plan, e_const, e_seg, sinks, batch)
            tangents += map(_Tangent, batch.tolist(), slope.tolist(), const.tolist())
        return tangents

    # Algorithm 2, breadth-first: every round probes the crossings of all
    # open tangent pairs in one pass
    tangents = probe([lo, hi])
    pairs = [(tangents[0], tangents[1])]
    while pairs:
        if len({round(t.slope, 9) for t in tangents}) > max_pieces:
            raise EnvelopeOverflowError(
                f"latency sweep envelope has more than {max_pieces} pieces; "
                "narrow the latency interval or raise max_pieces"
            )
        crossings = [
            (pair, x) for pair in pairs if (x := _crossing(*pair)) is not None
        ]
        mids = probe([x for _, x in crossings])
        pairs = []
        for ((t_lo, t_hi), x), mid in zip(crossings, mids):
            value = mid.at(x)
            if _close(value, t_lo.at(x)) and _close(value, t_hi.at(x)):
                # x is the breakpoint between the two tangents
                continue
            tangents.append(mid)
            pairs += [(t_lo, mid), (mid, t_hi)]

    lines = [Line(t.slope, t.const) for t in tangents]
    return PiecewiseLinear(lines=_upper_envelope(lines, lo, hi), lo=lo, hi=hi)
