"""Discrete-event LogGOPS simulator (the LogGOPSim reproduction).

The simulator replays an MPI execution graph under the LogGOPS model and a
latency-injection policy, producing per-vertex start/end timestamps, the
application makespan (what the paper calls the *measured* runtime when the
delay-thread injector is used), and the critical path.

Timing rules
------------
For a vertex ``v`` on rank ``r`` processed in topological order:

* ``ready(v)`` is the maximum over incoming edges of

  - ``end(u)`` for a dependency edge ``u -> v``;
  - ``release(end(u) + L + (s-1)·G)`` for a communication edge, where
    ``release`` is the injector's delivery policy (strategy A adds ΔL on the
    wire, strategy C serialises deliveries behind a single progress thread,
    …);

* ``CALC``: ``start = ready``, ``end = start + noise(cost)``;
* ``SEND``: ``start = max(ready, nic_free[r])``, ``end = start + o +
  injector.send_extra_delay(r)`` and the NIC is busy until ``start + g``
  (the LogGP *gap*);
* ``RECV``: ``start = ready``, ``end = start + o``.

Because the schedule builder serialises each rank's operations with
dependency edges, CPU occupancy is already encoded in the graph and only the
NIC gap needs explicit resource tracking.

This component doubles as the paper's baseline for Table I / Fig. 7: LLAMP
solves an LP once per latency point, LogGOPSim re-simulates — the benchmark
compares both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..network.params import LogGPSParams
from ..schedgen.graph import EdgeKind, ExecutionGraph, VertexKind
from .injector import IdealInjector, LatencyInjector
from .noise import NoiseModel, NoNoise

__all__ = [
    "SimulationResult",
    "LogGOPSSimulator",
    "simulate",
    "resolve_sim_engine",
]


def resolve_sim_engine(engine: str = "level", num_vertices: int = 0) -> str:
    """The simulation engine: always ``"level"``.

    Kept because external instrumentation (the pipeline benchmark's per-layer
    trace) wraps this name to count legacy-engine runs; nothing in the
    package calls it.
    """
    return "level"


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    makespan: float
    start: np.ndarray
    end: np.ndarray
    rank_finish: np.ndarray
    params: LogGPSParams

    @property
    def runtime(self) -> float:
        """Alias for :attr:`makespan` (microseconds)."""
        return self.makespan

    def critical_path(self, graph: ExecutionGraph) -> list[int]:
        """Extract one critical path by backtracking tight predecessors.

        The contribution of a predecessor ``u`` to ``ready(v)`` is ``end(u)``
        for a dependency edge and ``end(u) + L + (s-1)·G`` for a
        communication edge — the ideal wire time must be part of the ranking,
        otherwise a dependency predecessor finishing after ``end(u)`` but
        before the message's *arrival* would shadow the actually-latest
        input.  (Injector release policies are stateful and not replayable
        post-hoc, so their extra delays are not included; under non-ideal
        injectors the ranking is a close approximation.)
        """
        if graph.num_vertices != len(self.end):
            raise ValueError("simulation result does not match the given graph")
        L, G = self.params.L, self.params.G
        edge_src, edge_dst, edge_kind = graph.edge_arrays()
        # one vectorised pass: the contribution of every edge to its
        # target's ready time (end(u) plus the wire time for messages)
        contrib = self.end[edge_src] + np.where(
            edge_kind == int(EdgeKind.COMM),
            L + np.maximum(graph.size[edge_dst] - 1, 0) * G,
            0.0,
        )
        pred_indptr = graph._pred_indptr
        pred_edges = graph._pred_edges
        v = int(np.argmax(self.end))
        path = [v]
        while True:
            start, stop = pred_indptr[v], pred_indptr[v + 1]
            if start == stop:
                break
            # the predecessor whose arrival is latest; ties resolved
            # deterministically towards the lowest edge id (argmax returns
            # the first maximum and the CSR lists in-edges by edge id)
            eids = pred_edges[start:stop]
            v = int(edge_src[eids[np.argmax(contrib[eids])]])
            path.append(v)
        path.reverse()
        return path

    def critical_path_messages(self, graph: ExecutionGraph) -> int:
        """Number of communication edges along the extracted critical path."""
        path = np.asarray(self.critical_path(graph), dtype=np.int64)
        if path.size < 2:
            return 0
        comm_eids = graph.message_edges()
        edge_keys = (
            graph.edge_src[comm_eids] * graph.num_vertices + graph.edge_dst[comm_eids]
        )
        path_keys = path[:-1] * graph.num_vertices + path[1:]
        return int(np.isin(edge_keys, path_keys).sum())


class LogGOPSSimulator:
    """Replay execution graphs under the LogGOPS model, one vertex at a time.

    The per-vertex reference walk: one Python iteration per vertex in the
    canonical topological order.  Production runs go through :func:`simulate`
    and the level-synchronous engine (:mod:`repro.simulator.columnar`); the
    tests pin that engine's timestamps to this walk for every injector ×
    noise combination.
    """

    def __init__(
        self,
        graph: ExecutionGraph,
        params: LogGPSParams,
        injector: LatencyInjector | None = None,
        noise: NoiseModel | None = None,
    ) -> None:
        self.graph = graph
        self.params = params
        self.injector = injector if injector is not None else IdealInjector(0.0)
        self.noise = noise if noise is not None else NoNoise()

    def run(self) -> SimulationResult:
        """Simulate once and return timestamps and the makespan."""
        graph = self.graph
        params = self.params
        injector = self.injector
        noise = self.noise
        injector.reset()
        noise.reset()

        n = graph.num_vertices
        start = np.zeros(n, dtype=np.float64)
        end = np.zeros(n, dtype=np.float64)
        nic_free = np.zeros(graph.nranks, dtype=np.float64)

        kind = graph.kind
        cost = graph.cost
        size = graph.size
        rank = graph.rank
        L, o, g, G = params.L, params.o, params.g, params.G

        order = graph.topological_order()
        pred_indptr = graph._pred_indptr
        pred_edges = graph._pred_edges
        edge_src = graph.edge_src
        edge_kind = graph.edge_kind

        for v in order:
            v = int(v)
            r = int(rank[v])
            ready = 0.0
            for pos in range(pred_indptr[v], pred_indptr[v + 1]):
                eid = int(pred_edges[pos])
                u = int(edge_src[eid])
                if edge_kind[eid] == EdgeKind.COMM:
                    s = int(size[v])
                    arrival = end[u] + L + max(s - 1, 0) * G
                    t = injector.release_time(r, arrival)
                else:
                    t = end[u]
                if t > ready:
                    ready = t
            k = kind[v]
            if k == VertexKind.CALC:
                start[v] = ready
                end[v] = ready + noise.perturb(float(cost[v]))
            elif k == VertexKind.SEND:
                t0 = max(ready, nic_free[r])
                start[v] = t0
                end[v] = t0 + o + injector.send_extra_delay(r)
                nic_free[r] = t0 + g
            else:  # RECV
                start[v] = ready
                end[v] = ready + o

        rank_finish = np.zeros(graph.nranks, dtype=np.float64)
        if n:
            np.maximum.at(rank_finish, rank, end)
        makespan = float(end.max()) if n else 0.0
        return SimulationResult(
            makespan=makespan,
            start=start,
            end=end,
            rank_finish=rank_finish,
            params=params,
        )


def simulate(
    graph: ExecutionGraph,
    params: LogGPSParams,
    *,
    delta_L: float = 0.0,
    injector: LatencyInjector | None = None,
    noise: NoiseModel | None = None,
) -> SimulationResult:
    """Simulate once with the level-synchronous engine.

    ``delta_L`` adds latency through an :class:`IdealInjector` unless an
    explicit injector is supplied.
    """
    if not math.isfinite(delta_L):
        raise ValueError(f"delta_L must be finite, got {delta_L!r}")
    if injector is None:
        injector = IdealInjector(delta_L)
    elif delta_L:
        raise ValueError("pass either delta_L or an explicit injector, not both")
    from .columnar import simulate_level

    return simulate_level(graph, params, injector, noise if noise is not None else NoNoise())
