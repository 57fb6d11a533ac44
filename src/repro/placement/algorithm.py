"""LLAMP's sensitivity-guided rank placement (Algorithm 3, Appendix J).

The algorithm iteratively refines a process mapping ``π`` (rank → node):

1. build the heterogeneous (per-pair) LP of the execution graph and assign
   the lower bounds of every ``l_{i,j}`` / ``G_{i,j}`` variable from the
   architecture graph and the current mapping;
2. solve it — the objective value is the predicted runtime under ``π`` and
   the reduced costs of the pairwise variables form the latency/bandwidth
   sensitivity matrices ``D_L`` and ``D_G`` (how many critical-path messages
   and bytes each pair carries);
3. evaluate the *gain* of swapping every pair of ranks — moving
   heavily-communicating, high-sensitivity pairs closer together — and apply
   the best verified swap;
4. stop when no positive-gain swap exists or the predicted runtime stops
   improving.

Because the objective value *is* the predicted runtime, the algorithm can
verify each swap exactly instead of trusting the heuristic gain — precisely
the property the paper highlights.

The loop is *incremental*: the per-pair LP is lowered to CSR once and every
candidate mapping is evaluated through bound-only updates on a shared
:class:`~repro.lp.parametric.ParametricLP` (zero re-assemblies after the
first solve), the O(P³) swap-gain scan is a handful of dense matrix
products (:func:`swap_gain_matrix`), and up to ``top_k`` candidate swaps
are verified per iteration — the first one the LP confirms is applied, so
a misleading heuristic leader no longer ends the search prematurely.

The gain is intentionally *not* weighted by communication volume: the
pairwise sensitivities ``λ_L^{i,j}`` / ``λ_G^{i,j}`` already count the
critical-path messages and bytes of each pair, which is the paper's core
argument against volume-based mappers (the volume matrix is what the
Scotch-like baseline in :mod:`repro.placement.baselines` consumes instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.lp_builder import GraphLP, build_lp
from ..lp.parametric import ParametricLP
from ..network.hloggp import ArchitectureGraph, block_mapping
from ..network.params import LogGPSParams
from ..schedgen.graph import ExecutionGraph

__all__ = ["PlacementResult", "llamp_placement", "predicted_runtime", "swap_gain_matrix"]

#: Minimum heuristic gain / LP improvement considered significant (µs).
_GAIN_EPS = 1e-9


@dataclass
class PlacementResult:
    """Outcome of the placement search."""

    mapping: list[int]
    predicted_runtime: float
    initial_runtime: float
    iterations: int
    swaps: list[tuple[int, int]] = field(default_factory=list)
    history: list[float] = field(default_factory=list)
    num_lp_solves: int = 0
    num_reassemblies: int = 0

    @property
    def improvement(self) -> float:
        """Relative runtime improvement over the initial mapping."""
        if self.initial_runtime <= 0:
            return 0.0
        return 1.0 - self.predicted_runtime / self.initial_runtime


def _solve_for_mapping(graph_lp: GraphLP, arch: ArchitectureGraph, mapping: Sequence[int],
                       backend: str):
    graph_lp.set_pair_latency_bounds(arch.latency_matrix(mapping))
    if graph_lp.pair_gap:
        graph_lp.set_pair_gap_bounds(arch.gap_matrix(mapping))
    return graph_lp.model.solve(backend=backend)


def predicted_runtime(
    graph: ExecutionGraph,
    params: LogGPSParams,
    arch: ArchitectureGraph,
    mapping: Sequence[int],
    *,
    backend: str = "highs",
    include_gap: bool = True,
    graph_lp: GraphLP | None = None,
) -> float:
    """Predicted runtime of ``graph`` under a given process mapping.

    Pass a prebuilt per-pair ``graph_lp`` to reuse one assembled model
    across several mappings (bound-only updates, no re-assembly).
    """
    if graph_lp is None:
        graph_lp = build_lp(
            graph,
            params,
            latency_mode="per_pair",
            gap_mode="per_pair" if include_gap else "constant",
        )
    elif not graph_lp.pair_latency:
        raise ValueError("predicted_runtime needs a GraphLP built with latency_mode='per_pair'")
    solution = _solve_for_mapping(graph_lp, arch, mapping, backend)
    return solution.objective


def _swap_gain(
    i: int,
    j: int,
    sensitivity_L: np.ndarray,
    sensitivity_G: np.ndarray | None,
    mapping: Sequence[int],
    arch: ArchitectureGraph,
) -> float:
    """Heuristic gain (µs) of swapping ranks ``i`` and ``j``.

    The gain sums, over every partner ``k``, the change in latency cost
    ``λ_L^{·,k} · ΔL`` (and bandwidth cost when available) caused by moving
    each of the two ranks to the other's node.  Scalar reference of
    :func:`swap_gain_matrix`; the search loop uses the vectorised form.
    """
    node_i, node_j = mapping[i], mapping[j]
    if node_i == node_j:
        return 0.0
    gain = 0.0
    nranks = len(mapping)
    for k in range(nranks):
        if k == i or k == j:
            continue
        node_k = mapping[k]
        # rank i moves from node_i to node_j
        gain += sensitivity_L[i, k] * (
            arch.node_latency(node_i, node_k) - arch.node_latency(node_j, node_k)
        )
        # rank j moves from node_j to node_i
        gain += sensitivity_L[j, k] * (
            arch.node_latency(node_j, node_k) - arch.node_latency(node_i, node_k)
        )
        if sensitivity_G is not None:
            gain += sensitivity_G[i, k] * (
                arch.node_gap(node_i, node_k) - arch.node_gap(node_j, node_k)
            )
            gain += sensitivity_G[j, k] * (
                arch.node_gap(node_j, node_k) - arch.node_gap(node_i, node_k)
            )
    return gain


def _pairwise_gain(
    sensitivity: np.ndarray, node_matrix: np.ndarray, intra: float, ranks: np.ndarray
) -> np.ndarray:
    """Vectorised ``Σ_k S[·,k]·Δcost`` for one cost matrix (latency or gap).

    With ``pair[i,k] = cost(node(i), node(k))`` and ``d = diag(S @ pair)``,
    the full-sum gain of swapping ``i`` and ``j`` is
    ``d_i − (S @ pair)[i,j] + d_j − (S @ pair)[j,i]``; the two ``k ∈ {i, j}``
    terms the scalar definition excludes both equal
    ``S[i,j]·(pair[i,j] − intra)`` and are subtracted afterwards.
    """
    S = np.array(sensitivity, dtype=np.float64)
    np.fill_diagonal(S, 0.0)
    pair = node_matrix[np.ix_(ranks, ranks)]
    A = S @ pair
    d = np.diag(A)
    gain = d[:, None] + d[None, :] - A - A.T
    gain -= 2.0 * S * (pair - intra)
    return gain


def swap_gain_matrix(
    sensitivity_L: np.ndarray,
    sensitivity_G: np.ndarray | None,
    mapping: Sequence[int],
    arch: ArchitectureGraph,
) -> np.ndarray:
    """Heuristic gain (µs) of every rank swap, as one dense ``P × P`` matrix.

    ``matrix[i, j]`` equals :func:`_swap_gain` for the pair ``(i, j)``;
    same-node pairs (and the diagonal) are zero.  Replaces the O(P³)
    Python triple loop with a few dense matrix products.
    """
    ranks = np.asarray(arch._check_mapping(mapping), dtype=np.intp)
    gain = _pairwise_gain(
        sensitivity_L, arch.node_latency_matrix(), float(arch.intra_node_latency), ranks
    )
    if sensitivity_G is not None:
        gain += _pairwise_gain(
            sensitivity_G, arch.node_gap_matrix(), float(arch.intra_node_gap), ranks
        )
    gain[ranks[:, None] == ranks[None, :]] = 0.0
    return gain


def _rank_candidates(gain_matrix: np.ndarray, top_k: int) -> list[tuple[int, int]]:
    """Up to ``top_k`` candidate swaps, best heuristic gain first.

    The leading candidate replicates the historical sequential scan (a later
    pair must beat the incumbent by more than ``_GAIN_EPS``), so single-
    candidate searches are reproducible against the pre-engine implementation.
    """
    nranks = gain_matrix.shape[0]
    iu, ju = np.triu_indices(nranks, k=1)
    gains = gain_matrix[iu, ju]

    best_idx, best_gain = -1, 0.0
    for idx, gain in enumerate(gains.tolist()):
        if gain > best_gain + _GAIN_EPS:
            best_gain, best_idx = gain, idx
    if best_idx < 0:
        return []

    chosen = [best_idx]
    if top_k > 1:
        for idx in np.argsort(-gains, kind="stable"):
            idx = int(idx)
            if gains[idx] <= _GAIN_EPS:
                break  # descending order: every later gain fails too
            if idx == best_idx:
                continue
            chosen.append(idx)
            if len(chosen) >= top_k:
                break
    return [(int(iu[idx]), int(ju[idx])) for idx in chosen]


def llamp_placement(
    graph: ExecutionGraph,
    params: LogGPSParams,
    arch: ArchitectureGraph,
    *,
    initial_mapping: Sequence[int] | None = None,
    max_iterations: int = 20,
    backend: str = "highs",
    include_gap: bool = True,
    top_k: int = 4,
    graph_lp: GraphLP | None = None,
) -> PlacementResult:
    """Run Algorithm 3 and return the refined mapping.

    ``initial_mapping`` defaults to the block mapping (the paper's baseline).
    The per-pair LP is assembled once; every candidate swap is evaluated
    through bound-only updates on a shared :class:`ParametricLP`, and up to
    ``top_k`` candidates (by heuristic gain) are LP-verified per iteration —
    the first confirmed improvement is applied.  ``top_k=1`` reproduces the
    classic best-candidate-or-stop behaviour.  Pass a prebuilt per-pair
    ``graph_lp`` to share one assembled model across several searches.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    nranks = graph.nranks
    mapping = list(initial_mapping) if initial_mapping is not None else block_mapping(nranks, arch)
    if len(mapping) != nranks:
        raise ValueError(f"mapping has {len(mapping)} entries for {nranks} ranks")

    if graph_lp is None:
        graph_lp = build_lp(
            graph,
            params,
            latency_mode="per_pair",
            gap_mode="per_pair" if include_gap else "constant",
        )
    elif not graph_lp.pair_latency:
        raise ValueError("llamp_placement needs a GraphLP built with latency_mode='per_pair'")

    engine = ParametricLP(graph_lp.model, backend=backend)
    lat_keys = list(graph_lp.pair_latency)
    lat_vars = [graph_lp.pair_latency[key].index for key in lat_keys]
    lat_rows = np.array([key[0] for key in lat_keys], dtype=np.intp)
    lat_cols = np.array([key[1] for key in lat_keys], dtype=np.intp)
    gap_keys = list(graph_lp.pair_gap)
    gap_vars = [graph_lp.pair_gap[key].index for key in gap_keys]
    gap_rows = np.array([key[0] for key in gap_keys], dtype=np.intp)
    gap_cols = np.array([key[1] for key in gap_keys], dtype=np.intp)

    # the architecture is immutable for the whole search: build the node
    # matrices once and gather per candidate instead of rebuilding them
    # inside every solve (validity is checked once — candidates are
    # permutations of the validated initial mapping)
    arch._check_mapping(mapping)
    node_lat = arch.node_latency_matrix()
    node_gap = arch.node_gap_matrix() if gap_keys else None

    def solve_mapping(candidate: Sequence[int]):
        ranks = np.asarray(candidate, dtype=np.intp)
        lat = node_lat[np.ix_(ranks, ranks)]
        np.fill_diagonal(lat, 0.0)
        engine.set_lower_bounds(lat_vars, lat[lat_rows, lat_cols])
        if gap_keys:
            gap = node_gap[np.ix_(ranks, ranks)]
            np.fill_diagonal(gap, 0.0)
            engine.set_lower_bounds(gap_vars, gap[gap_rows, gap_cols])
        return engine.solve()

    solution = solve_mapping(mapping)
    best_runtime = solution.objective
    initial_runtime = best_runtime
    history = [best_runtime]
    swaps: list[tuple[int, int]] = []

    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        sensitivity_L = graph_lp.pair_latency_sensitivities(solution)
        sensitivity_G = (
            graph_lp.pair_gap_sensitivities(solution) if graph_lp.pair_gap else None
        )
        gains = swap_gain_matrix(sensitivity_L, sensitivity_G, mapping, arch)

        improved = False
        for i, j in _rank_candidates(gains, top_k):
            candidate = list(mapping)
            candidate[i], candidate[j] = candidate[j], candidate[i]
            candidate_solution = solve_mapping(candidate)
            if candidate_solution.objective < best_runtime - _GAIN_EPS:
                mapping = candidate
                best_runtime = candidate_solution.objective
                solution = candidate_solution
                swaps.append((i, j))
                history.append(best_runtime)
                improved = True
                break
        if not improved:
            # the LP verdict overrides the heuristic gains: stop refining
            break

    return PlacementResult(
        mapping=mapping,
        predicted_runtime=best_runtime,
        initial_runtime=initial_runtime,
        iterations=iterations,
        swaps=swaps,
        history=history,
        num_lp_solves=engine.num_solves,
        num_reassemblies=engine.structure_rebuilds,
    )
