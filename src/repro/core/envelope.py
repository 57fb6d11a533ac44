"""Single-traversal exact ``T(L)`` envelopes: convex line-set propagation.

Every edge cost of the LogGPS LP is *affine in the latency* ``L`` — a
communication edge costs ``l + (size-1)·G`` and everything else is a
constant — so the makespan ``T(L)`` is the upper envelope of per-path lines
``a_i·L + C_i`` (``a_i`` = number of messages on path ``i``).  The tangent
search of :class:`~repro.lp.parametric.ParametricLP` recovers that envelope
with one LP solve per breakpoint; this module computes the *same* curve in a
single vectorised traversal of the chain-condensed level structure, with no
LP assembly and no solver at all.

The pass mirrors the condensation of :mod:`repro.lp.compiler` exactly:

1. per-vertex cost deltas (CALC durations, the constant overhead ``o`` and
   the per-message ``G`` byte cost folded in) are accumulated from every
   vertex back to its *anchor* — the nearest source or merge point — with
   the compiler's own :func:`~repro.lp.compiler._pointer_jump`;
2. convex hulls of ``(slope, intercept)`` lines are maintained **only at
   merge points** (an affine shift preserves the hull property along a
   chain, so chain vertices never materialise one).  Hulls live in one
   pooled array pair indexed by ``(start, len)`` per anchor; slot 0 holds
   the shared ``(0, 0)`` line of every source anchor;
3. merge points are processed level-synchronously (the same level grouping
   the simulator batches on): all rows of one level concatenate their
   predecessor hulls plus per-edge affine shifts into one segmented array
   and a single vectorised segmented upper-hull pass reduces them;
4. the sink completions are merged the same way into the final
   :class:`~repro.core.parametric.PiecewiseLinear` envelope.

Because hulls only keep lines that are maximal somewhere in ``[lo, hi]``,
the per-vertex state stays at most ``#breakpoints + 1`` lines — the paper's
own envelope bound — and dead hulls are compacted away once the last level
referencing them has been processed, so the pass runs inside the same fixed
memory budget as the streaming compile/simulate pipeline at million-rank
scale.

The result is numerically identical (well below the 1e-6 contract) to the
LP tangent envelope: at the LP optimum every symbolic variable other than
``l`` sits at its lower bound (= the ``params`` value), so folding those
bounds as constants reproduces the optimal objective for every ``L``.  The
engine therefore requires the **affinity contract** documented in
``src/repro/lp/README.md``: a global latency variable, no per-pair HLogGP
variables, and gap/overhead bounds that still equal ``params``.  A raw graph
plus ``params`` always satisfies it; a prebuilt LP that breaks it (see
:func:`forward_incompatibility`) is answered by the
:class:`~repro.lp.parametric.ParametricLP` tangent search instead, which
also serves as the test oracle of this module.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..lp.parametric import EnvelopeOverflowError
from ..network.params import LogGPSParams
from ..schedgen.graph import EdgeKind, ExecutionGraph, VertexKind

__all__ = [
    "check_nonnegative",
    "forward_envelope",
    "forward_incompatibility",
    "resolve_envelope_engine",
    "forward_supports_modes",
]

#: iterations of the simultaneous neighbour-elimination before the segmented
#: hull falls back to the sequential per-segment stack scan.  Each pass
#: removes every interior line strictly below its neighbours' crossing, so
#: alternating-dominated inputs halve per pass; the cap only triggers on
#: adversarial stack-shaped inputs.
_MAX_HULL_PASSES = 50

#: pool compaction threshold: dead hull lines are garbage-collected once the
#: pool grows beyond this many entries *and* less than half of it is live.
_COMPACT_MIN_POOL = 4096

#: per-merge line sets at most this large skip the convex reduction inside
#: the level loop (slope dedup alone bounds them); larger sets always get
#: the full hull + domain clip, which keeps state linear at scale.
_REDUCE_SKIP = 8

#: below this vertex count the liveness/compaction bookkeeping costs more
#: than the pool it could reclaim, so it is skipped entirely.
_GC_MIN_VERTICES = 65_536


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
# vectorised segmented upper hulls
# ---------------------------------------------------------------------------


def _sequential_hulls(
    seg: np.ndarray, slope: np.ndarray, intercept: np.ndarray,
    lo: float, hi: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment stack-scan fallback (exact, Python loop per segment)."""
    from .parametric import Line, _upper_envelope

    out_seg: list[np.ndarray] = []
    out_slope: list[float] = []
    out_intercept: list[float] = []
    bounds = np.concatenate(
        [[0], np.flatnonzero(np.diff(seg)) + 1, [len(seg)]]
    )
    for a, b in zip(bounds[:-1], bounds[1:]):
        hull = _upper_envelope(
            [Line(float(s), float(c)) for s, c in zip(slope[a:b], intercept[a:b])],
            lo, hi,
        )
        out_seg.append(np.full(len(hull), seg[a], dtype=np.int64))
        out_slope.extend(line.slope for line in hull)
        out_intercept.extend(line.intercept for line in hull)
    return (
        np.concatenate(out_seg) if out_seg else seg,
        np.asarray(out_slope, dtype=np.float64),
        np.asarray(out_intercept, dtype=np.float64),
    )


def _drop_invisible_pieces(lines: list) -> list:
    """Drop hull pieces the LP tangent search could never discover.

    Many paths concurrent through (almost) one point produce exact hull
    pieces of near-zero validity width.  The
    :class:`~repro.lp.parametric.ParametricLP` search stops refining once a
    midpoint probe lies on both neighbouring tangents within its ``_close``
    tolerance, so such pieces never appear in the oracle's envelope.
    Applying the same tolerance here keeps the two engines structurally
    identical (same piece count and breakpoints), not just pointwise equal:
    an interior line is dropped when its maximum improvement over its
    neighbours — attained where the neighbours cross — is within the bound.
    """
    from ..lp.parametric import _ABS_TOL, _REL_TOL

    if len(lines) <= 2:
        return lines
    kept = [lines[0]]
    for line in lines[1:]:
        while len(kept) >= 2:
            prev, top = kept[-2], kept[-1]
            x = (line.intercept - prev.intercept) / (prev.slope - line.slope)
            crossing = prev.slope * x + prev.intercept
            improvement = top.slope * x + top.intercept - crossing
            if improvement <= _ABS_TOL + _REL_TOL * max(abs(crossing), 1.0):
                kept.pop()
            else:
                break
        kept.append(line)
    return kept


def _segmented_hulls(
    seg: np.ndarray, slope: np.ndarray, intercept: np.ndarray,
    lo: float, hi: float,
    *,
    reduce_over: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper hull of every segment at once, clipped to ``[lo, hi]``.

    ``seg`` need not be sorted.  Returns ``(seg, slope, intercept)`` sorted
    by ``(seg, slope)`` with, per segment, exactly the lines of the convex
    upper envelope that are maximal somewhere in ``[lo, hi]`` (plus, in rare
    float-tie cases, lines touching the envelope at a single point — the
    callers' final :func:`~repro.core.parametric._upper_envelope` cleanup
    removes those from the returned curve).

    When ``reduce_over`` is positive and no segment holds more than that
    many lines after the slope dedup, the convex reduction and domain clip
    are skipped: keeping slope-deduplicated but not-yet-convex line sets is
    sound (the pointwise maximum is unchanged — that is all downstream
    levels consume), and for the small hulls that dominate real sweeps the
    dedup alone already bounds the set, so the extra passes are pure
    overhead.  Large segments always get the full reduction, which is what
    keeps the pooled state linear at million-rank scale.

    The reduction is a simultaneous neighbour elimination: a line is dropped
    when it lies *strictly* below the crossing of its two same-segment
    neighbours.  Strictness makes simultaneous removal safe — at any ``x``
    the highest removed line is strictly below one of its witnesses, and
    that witness cannot itself be removed at ``x`` — so the pointwise
    maximum is preserved by every pass.
    """
    if len(seg) == 0:
        return seg, slope, intercept
    order = np.lexsort((intercept, slope, seg))
    seg, slope, intercept = seg[order], slope[order], intercept[order]
    # slope-dedup: keep the largest intercept per (seg, slope) — the last of
    # each group under the lexsort above
    if len(seg) > 1:
        keep = np.empty(len(seg), dtype=bool)
        keep[-1] = True
        keep[:-1] = (seg[1:] != seg[:-1]) | (slope[1:] != slope[:-1])
        seg, slope, intercept = seg[keep], slope[keep], intercept[keep]

    if reduce_over > 0 and len(seg) <= reduce_over * max(
        1, int(seg[-1]) - int(seg[0]) + 1
    ):
        # cheap upper bound first: if even `#segments * reduce_over` lines
        # are not present, no segment can exceed the threshold
        return seg, slope, intercept
    if reduce_over > 0:
        lens = np.bincount(seg - seg[0])
        if int(lens.max(initial=0)) <= reduce_over:
            return seg, slope, intercept

    passes = 0
    while len(seg) >= 3:
        interior = (seg[1:-1] == seg[:-2]) & (seg[1:-1] == seg[2:])
        if not interior.any():
            break
        denom = slope[2:] - slope[:-2]  # > 0 wherever `interior` holds
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (intercept[:-2] - intercept[2:]) / denom
            below = interior & (
                slope[1:-1] * x + intercept[1:-1]
                < slope[:-2] * x + intercept[:-2]
            )
        if not below.any():
            break
        if passes >= _MAX_HULL_PASSES:
            return _sequential_hulls(seg, slope, intercept, lo, hi)
        keep = np.ones(len(seg), dtype=bool)
        keep[1:-1] = ~below
        seg, slope, intercept = seg[keep], slope[keep], intercept[keep]
        passes += 1

    # domain clip: drop pieces whose validity interval misses [lo, hi]; the
    # piece containing `lo` always survives, so no segment empties out
    n = len(seg)
    if n > 1:
        same_prev = np.zeros(n, dtype=bool)
        same_prev[1:] = seg[1:] == seg[:-1]
        x_prev = np.full(n, -np.inf)
        idx = np.flatnonzero(same_prev)
        x_prev[idx] = (intercept[idx - 1] - intercept[idx]) / (
            slope[idx] - slope[idx - 1]
        )
        x_next = np.full(n, np.inf)
        x_next[idx - 1] = x_prev[idx]
        keep = (x_prev <= hi + 1e-15) & (x_next >= lo - 1e-15)
        seg, slope, intercept = seg[keep], slope[keep], intercept[keep]
    return seg, slope, intercept


# ---------------------------------------------------------------------------
# the forward pass
# ---------------------------------------------------------------------------


class _HullPool:
    """Pooled hull storage: ``(slope, intercept)`` runs addressed per anchor.

    Slot 0 is the shared ``(0, 0)`` line every source anchor points at, so
    sources cost no storage at all.  ``compact`` garbage-collects hulls of
    merge anchors whose last referencing level has passed.
    """

    def __init__(self, n: int) -> None:
        self.start = np.zeros(n, dtype=np.int64)
        self.length = np.ones(n, dtype=np.int64)
        self.slope = np.zeros(256, dtype=np.float64)
        self.intercept = np.zeros(256, dtype=np.float64)
        self.used = 1
        self.live = 1

    def gather(self, anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand the hull runs of ``anchors``: returns ``(rep, idx, lens)``
        with ``rep`` mapping every expanded line back to its anchor position."""
        lens = self.length[anchors]
        total = int(lens.sum())
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lens) - lens, lens
        )
        idx = np.repeat(self.start[anchors], lens) + offsets
        rep = np.repeat(np.arange(len(anchors), dtype=np.int64), lens)
        return rep, idx, lens

    def append(self, vertices: np.ndarray, lens: np.ndarray,
               slope: np.ndarray, intercept: np.ndarray) -> None:
        need = self.used + len(slope)
        if need > len(self.slope):
            capacity = max(need, 2 * len(self.slope))
            self.slope = np.concatenate(
                [self.slope, np.empty(capacity - len(self.slope))]
            )
            self.intercept = np.concatenate(
                [self.intercept, np.empty(capacity - len(self.intercept))]
            )
        self.slope[self.used:need] = slope
        self.intercept[self.used:need] = intercept
        self.start[vertices] = self.used + np.concatenate(
            [[0], np.cumsum(lens[:-1])]
        )
        self.length[vertices] = lens
        self.used = need
        self.live += int(lens.sum())

    def retire(self, vertices: np.ndarray) -> None:
        """Mark the hulls of ``vertices`` dead (storage reclaimed on compact)."""
        if len(vertices):
            self.live -= int(self.length[vertices].sum())

    def compact(self, alive: np.ndarray) -> None:
        """Rewrite the pool to hold only slot 0 plus the hulls of ``alive``."""
        if self.used <= _COMPACT_MIN_POOL or 2 * self.live >= self.used:
            return
        rep, idx, lens = self.gather(alive)
        total = int(lens.sum())
        capacity = max(256, 2 * (total + 1))
        slope = np.empty(capacity)
        intercept = np.empty(capacity)
        slope[0] = 0.0
        intercept[0] = 0.0
        slope[1:total + 1] = self.slope[idx]
        intercept[1:total + 1] = self.intercept[idx]
        self.start[alive] = 1 + np.concatenate([[0], np.cumsum(lens[:-1])])
        self.slope = slope
        self.intercept = intercept
        self.used = total + 1
        self.live = total + 1


def forward_envelope(
    graph: ExecutionGraph,
    params: LogGPSParams,
    *,
    l_min: float = 0.0,
    l_max: float = 10_000.0,
    max_pieces: int = 50_000,
):
    """The exact ``T(L)`` envelope of ``graph`` on ``[l_min, l_max]``,
    computed in one level-synchronous traversal (no LP, no solver).

    All LogGPS parameters other than the latency are folded from ``params``
    as constants, exactly as the LP bakes them into its constraint constants
    (and as the optimum pins every symbolic bound).  Numerically identical
    to ``BatchedSweep(build_lp(graph, params), ...).envelope`` whenever the
    affinity contract holds — see this module's docstring and
    ``src/repro/lp/README.md``.

    ``max_pieces`` bounds the hull size at every vertex *and* of the final
    envelope; overflow raises :class:`EnvelopeOverflowError` like the other
    parametric engines.
    """
    validate_interval(l_min, l_max)
    if max_pieces < 1:
        raise ValueError(f"max_pieces must be positive, got {max_pieces}")
    lo, hi = float(l_min), float(l_max)

    from ..lp.compiler import _anchors, _pointer_jump
    from .parametric import Line, PiecewiseLinear, _upper_envelope

    n = graph.num_vertices
    m = graph.num_edges
    cost = graph.cost
    size = graph.size
    edge_src = graph.edge_src
    edge_dst = graph.edge_dst

    indeg = graph.in_degrees()
    topo_pos = graph.topo_positions()
    parent = graph.chain_parent()
    chain_eid = graph.chain_in_edge()
    is_comm_edge = np.asarray(graph.edge_kind) == int(EdgeKind.COMM)
    if m:
        bw_edge = size[edge_dst].astype(np.float64)
        bw_edge -= 1.0
        np.maximum(bw_edge, 0.0, out=bw_edge)
    else:
        bw_edge = np.zeros(0)

    # per-vertex deltas with everything but L folded constant, then chain
    # compression back to each anchor — the compiler's own machinery
    calc = np.asarray(graph.kind) == int(VertexKind.CALC)
    d_const = np.where(calc, cost, params.o)
    d_l = np.zeros(n, dtype=np.float64)
    chain_vertices = np.flatnonzero(chain_eid >= 0)
    chain_edges = chain_eid[chain_vertices]
    comm_chain = is_comm_edge[chain_edges] if m else np.zeros(0, dtype=bool)
    cv = chain_vertices[comm_chain]
    cv_eid = chain_edges[comm_chain]
    d_l[cv] = 1.0
    d_const[cv] += params.G * bw_edge[cv_eid]

    channels = [np.append(d_const, 0.0), np.append(d_l, 0.0)]
    _pointer_jump(n, parent, channels, None)
    anchor = _anchors(n, parent)
    acc_const, acc_l = channels

    # rows: one per (merge vertex, in-edge), exactly the compiled LP's layout
    merges = graph.merge_points()
    merges = merges[np.argsort(topo_pos[merges], kind="stable")]
    level = graph.level_of()
    mlevel = level[merges]  # non-decreasing: the order contract is level-major
    counts = indeg[merges].astype(np.int64)
    row_ptr = np.zeros(len(merges) + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    total = int(row_ptr[-1])
    if total:
        local = np.arange(total, dtype=np.int64) - np.repeat(row_ptr[:-1], counts)
        merge_eids = graph._pred_edges[
            np.repeat(graph._pred_indptr[merges], counts) + local
        ]
        row_u = edge_src[merge_eids]
        e_comm = is_comm_edge[merge_eids]
        row_slope = acc_l[row_u] + e_comm
        row_const = acc_const[row_u] + params.G * np.where(
            e_comm, bw_edge[merge_eids], 0.0
        )
        row_anchor = anchor[row_u]
    else:
        row_slope = row_const = np.zeros(0)
        row_anchor = np.zeros(0, dtype=np.int64)

    sinks = np.asarray(graph.sinks(), dtype=np.int64)
    sink_anchor = anchor[sinks]

    # liveness: the last level whose rows reference each anchor's hull
    infinity = np.int64(graph.num_levels + 1)
    last_use = np.full(n, -1, dtype=np.int64)
    if total:
        np.maximum.at(last_use, row_anchor, np.repeat(mlevel, counts))
    last_use[sink_anchor] = infinity

    pool = _HullPool(n)
    overflow_hint = "narrow the latency interval or raise max_pieces"

    # liveness bookkeeping pays for itself only when the pool can outgrow the
    # graph; small sweeps skip it and keep every hull until the end
    gc = n >= _GC_MIN_VERTICES
    if gc and len(merges):
        death_order = np.argsort(last_use[merges], kind="stable")
        death_levels = last_use[merges][death_order]
        death_pos = 0
        alive_mask = np.zeros(len(merges), dtype=bool)
    reduce_over = min(_REDUCE_SKIP, max_pieces)

    if len(merges):
        bounds = np.concatenate(
            [[0], np.flatnonzero(np.diff(mlevel)) + 1, [len(merges)]]
        )
        for g0, g1 in zip(bounds[:-1], bounds[1:]):
            current_level = int(mlevel[g0])
            r0, r1 = int(row_ptr[g0]), int(row_ptr[g1])
            rep, idx, _ = pool.gather(row_anchor[r0:r1])
            seg_of_row = (
                np.repeat(np.arange(g0, g1, dtype=np.int64), counts[g0:g1]) - g0
            )
            line_seg = seg_of_row[rep]
            line_slope = pool.slope[idx] + row_slope[r0:r1][rep]
            line_intercept = pool.intercept[idx] + row_const[r0:r1][rep]
            hseg, hslope, hintercept = _segmented_hulls(
                line_seg, line_slope, line_intercept, lo, hi,
                reduce_over=reduce_over,
            )
            new_lens = np.bincount(hseg, minlength=g1 - g0)
            widest = int(new_lens.max(initial=0))
            if widest > max_pieces:
                vertex = int(merges[g0 + int(np.argmax(new_lens))])
                raise EnvelopeOverflowError(
                    f"envelope at vertex {vertex} has {widest} pieces "
                    f"(> {max_pieces}); {overflow_hint}"
                )
            group = merges[g0:g1]
            pool.append(group, new_lens, hslope, hintercept)
            if gc:
                # hulls whose last referencing level just ran are dead;
                # compact once more than half the pool is garbage
                alive_mask[g0:g1] = True
                end = int(
                    np.searchsorted(death_levels, current_level, side="right")
                )
                if end > death_pos:
                    dying = death_order[death_pos:end]
                    alive_mask[dying] = False
                    pool.retire(merges[dying])
                    death_pos = end
                    pool.compact(merges[alive_mask])

    # final reduction: every sink's completion is its anchor hull shifted by
    # the chain-compressed costs — one more segmented hull, one segment
    rep, idx, _ = pool.gather(sink_anchor)
    final_slope = pool.slope[idx] + acc_l[sinks][rep]
    final_intercept = pool.intercept[idx] + acc_const[sinks][rep]
    _, hslope, hintercept = _segmented_hulls(
        np.zeros(len(final_slope), dtype=np.int64), final_slope,
        final_intercept, lo, hi,
    )
    # the exact sequential pass also removes float-tie degenerate pieces, so
    # the returned curve is structurally identical to the LP path's
    final = _upper_envelope(
        [Line(float(s), float(c)) for s, c in zip(hslope, hintercept)], lo, hi
    )
    final = _drop_invisible_pieces(final)
    if len(final) > max_pieces:
        raise EnvelopeOverflowError(
            f"latency sweep envelope has {len(final)} pieces "
            f"(> {max_pieces}); {overflow_hint}"
        )
    return PiecewiseLinear(lines=final, lo=lo, hi=hi)
