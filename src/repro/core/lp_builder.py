"""Execution graph → linear program (Algorithm 1 of the paper).

The conversion walks the execution graph in topological order and maintains,
for every vertex ``v``, an affine expression ``T(v)`` for its completion time
in terms of the symbolic LogGPS parameters (by default only the latency
``l``; optionally also the per-byte gap ``G`` and the overhead ``o``) and of
the auxiliary ``y`` variables introduced at merge points:

* a vertex with a single predecessor ``u`` reached through edge ``e``
  completes at ``T(u) + edge_cost(e) + vertex_cost(v)``;
* a vertex with several predecessors introduces a fresh variable ``y_v``
  constrained by ``y_v >= T(u) + edge_cost(e)`` for every incoming edge, and
  completes at ``y_v + vertex_cost(v)``;
* a final variable ``t`` dominates the completion of every sink vertex and is
  minimised.

Under the (default) eager protocol the cost of a communication edge carrying
``s`` bytes is ``l + (s - 1) · G``; vertices of kind ``SEND``/``RECV`` cost
one overhead ``o`` each; ``CALC`` vertices cost their recorded duration.
Rendezvous messages have already been expanded into eager handshakes by the
schedule generator (see :mod:`repro.schedgen.builder`).

Heterogeneous networks (Appendix I) are supported through
``latency_mode="per_pair"`` / ``gap_mode="per_pair"``: every unordered rank
pair that communicates gets its own ``l_{i,j}`` / ``G_{i,j}`` decision
variable, whose reduced cost after optimisation is the pairwise sensitivity
``λ_L^{i,j}`` used by the rank-placement algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..lp.model import Constraint, LinearExpr, LPModel, LPSolution, Sense, Variable
from ..network.params import LogGPSParams
from ..schedgen.graph import EdgeKind, ExecutionGraph, VertexKind

__all__ = ["GraphLP", "build_lp"]


def _pair_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


@dataclass
class GraphLP:
    """The LP generated from an execution graph, plus its decision variables.

    Attributes
    ----------
    model:
        The underlying :class:`~repro.lp.model.LPModel` (objective: minimise
        the makespan variable ``t``).
    t:
        The makespan variable.
    latency:
        The global latency variable ``l`` (``None`` in per-pair mode).
    gap:
        The global per-byte gap variable (``None`` unless requested).
    overhead:
        The overhead variable ``o`` (``None`` unless requested).
    pair_latency / pair_gap:
        Per-pair decision variables keyed by the unordered rank pair.
    params:
        The LogGPS configuration whose non-symbolic entries were baked into
        the constraint constants.
    """

    model: LPModel
    graph: ExecutionGraph
    params: LogGPSParams
    t: Variable
    latency: Variable | None = None
    gap: Variable | None = None
    overhead: Variable | None = None
    pair_latency: dict[tuple[int, int], Variable] = field(default_factory=dict)
    pair_gap: dict[tuple[int, int], Variable] = field(default_factory=dict)
    sink_rows: list[int] = field(default_factory=list)
    num_messages: int = 0

    @property
    def sink_constraints(self) -> list[Constraint]:
        """The ``t >= completion(sink)`` rows (materialised on demand)."""
        constraints = self.model.constraints
        return [constraints[index] for index in self.sink_rows]

    # -- bound management -----------------------------------------------------

    def set_latency_bound(self, L: float) -> None:
        """Constrain ``l >= L`` (the paper adds this row before each solve)."""
        if self.latency is None:
            raise ValueError("this LP was built in per-pair latency mode")
        self.latency = self.model.set_var_lb(self.latency, L)

    def set_pair_latency_bounds(self, matrix: Mapping[tuple[int, int], float] | np.ndarray) -> None:
        """Assign lower bounds to every per-pair latency variable."""
        if not self.pair_latency:
            raise ValueError("this LP was not built in per-pair latency mode")
        for (i, j), var in self.pair_latency.items():
            if isinstance(matrix, np.ndarray):
                bound = float(matrix[i, j])
            else:
                bound = float(matrix[_pair_key(i, j)])
            self.pair_latency[(i, j)] = self.model.set_var_lb(var, bound)

    def set_pair_gap_bounds(self, matrix: Mapping[tuple[int, int], float] | np.ndarray) -> None:
        """Assign lower bounds to every per-pair gap variable."""
        if not self.pair_gap:
            raise ValueError("this LP was not built with per-pair gap variables")
        for (i, j), var in self.pair_gap.items():
            if isinstance(matrix, np.ndarray):
                bound = float(matrix[i, j])
            else:
                bound = float(matrix[_pair_key(i, j)])
            self.pair_gap[(i, j)] = self.model.set_var_lb(var, bound)

    def set_gap_bound(self, G: float) -> None:
        """Constrain the symbolic per-byte gap from below."""
        if self.gap is None:
            raise ValueError("this LP was not built with a symbolic gap variable")
        self.gap = self.model.set_var_lb(self.gap, G)

    def set_overhead_bound(self, o: float) -> None:
        """Constrain the symbolic overhead from below."""
        if self.overhead is None:
            raise ValueError("this LP was not built with a symbolic overhead variable")
        self.overhead = self.model.set_var_lb(self.overhead, o)

    # -- solving convenience ----------------------------------------------------

    def solve_runtime(
        self, L: float | None = None, backend: str = "highs", **options: object
    ) -> LPSolution:
        """Minimise the makespan, optionally after setting ``l >= L``.

        ``options`` are forwarded to the backend (e.g. ``warm_start=``).
        """
        if L is not None:
            self.set_latency_bound(L)
        self._set_min_objective()
        return self.model.solve(backend=backend, **options)

    def solve_max_latency(
        self, runtime_bound: float, backend: str = "highs", **options: object
    ) -> LPSolution:
        """Maximise ``l`` subject to ``t <= runtime_bound`` (Section II-D2).

        The additional runtime constraint is removed again after solving so
        the object can be reused.
        """
        if self.latency is None:
            raise ValueError("latency tolerance requires the global latency variable")
        bound_constraint = self.model.add_le(
            self.t.to_expr(), runtime_bound, name="runtime_bound"
        )
        self.model.set_objective(self.latency, Sense.MAX)
        try:
            solution = self.model.solve(backend=backend, **options)
        finally:
            self.model.pop_constraint()
            self._renumber_constraints()
            self._set_min_objective()
        return solution

    def tangent_envelope(
        self,
        l_min: float,
        l_max: float,
        *,
        backend: str = "highs",
        max_solves: int = 10_000,
        max_pieces: int | None = None,
        engine=None,
    ):
        """Run the shared tangent-envelope search over the latency variable.

        Returns the :class:`~repro.lp.parametric.TangentEnvelope` of
        ``T(L)`` on ``[l_min, l_max]`` — the single entry point used by
        Algorithm 2 (:mod:`repro.core.critical_latency`) and the batched
        sweep engine.  Keeps the engine hand-off (objective reset, latency
        variable re-sync after the bound-moving probes) in one place.
        Callers that need solve counts even when the search raises can pass
        their own :class:`~repro.lp.parametric.ParametricLP` as ``engine``
        (``backend``/``max_solves`` are then ignored).
        """
        if self.latency is None:
            raise ValueError("this LP was built in per-pair latency mode")
        from ..lp.parametric import ParametricLP

        self._set_min_objective()
        if engine is None:
            engine = ParametricLP(self.model, backend=backend, max_solves=max_solves)
        try:
            return engine.tangent_envelope(
                self.latency, l_min, l_max, max_pieces=max_pieces
            )
        finally:
            # the probes moved the latency lower bound; re-sync the handle
            self.latency = self.model.variables[self.latency.index]

    def _set_min_objective(self) -> None:
        # no-op when already minimising t: set_objective bumps the model's
        # objective revision, which would force the assembler to rebuild the
        # objective vector on every solve of a sweep
        model = self.model
        if (
            model.sense is Sense.MIN
            and model.objective.constant == 0.0
            and model.objective.coeffs == {self.t.index: 1.0}
        ):
            return
        model.set_objective(self.t, Sense.MIN)

    def _renumber_constraints(self) -> None:
        for index, constraint in enumerate(self.model.constraints):
            constraint.index = index

    # -- derived metrics ----------------------------------------------------------

    def latency_sensitivity(self, solution: LPSolution) -> float:
        """``λ_L``: the reduced cost of the latency variable (Section II-D1)."""
        if self.latency is None:
            raise ValueError("global latency variable not present")
        return solution.reduced_cost(self.latency)

    def gap_sensitivity(self, solution: LPSolution) -> float:
        """``λ_G``: the reduced cost of the per-byte gap variable."""
        if self.gap is None:
            raise ValueError("gap variable not present")
        return solution.reduced_cost(self.gap)

    def pair_latency_sensitivities(self, solution: LPSolution) -> np.ndarray:
        """Matrix of pairwise latency sensitivities ``λ_L^{i,j}`` (Appendix I)."""
        n = self.graph.nranks
        matrix = np.zeros((n, n), dtype=np.float64)
        for (i, j), var in self.pair_latency.items():
            value = solution.reduced_cost(var)
            matrix[i, j] = value
            matrix[j, i] = value
        return matrix

    def pair_gap_sensitivities(self, solution: LPSolution) -> np.ndarray:
        """Matrix of pairwise bandwidth sensitivities ``λ_G^{i,j}``."""
        n = self.graph.nranks
        matrix = np.zeros((n, n), dtype=np.float64)
        for (i, j), var in self.pair_gap.items():
            value = solution.reduced_cost(var)
            matrix[i, j] = value
            matrix[j, i] = value
        return matrix


def build_lp(
    graph: ExecutionGraph,
    params: LogGPSParams,
    *,
    latency_mode: str = "global",
    gap_mode: str = "constant",
    overhead_mode: str = "constant",
    name: str = "llamp",
    engine: str = "compiled",
) -> GraphLP:
    """Convert ``graph`` into a :class:`GraphLP` under configuration ``params``.

    Parameters
    ----------
    latency_mode:
        ``"global"`` — one symbolic variable ``l`` shared by every message
        (lower-bounded by ``params.L``); ``"per_pair"`` — one variable per
        communicating rank pair (HLogGP, Appendix I); ``"constant"`` — bake
        ``params.L`` into the constants (no latency variable).
    gap_mode:
        ``"constant"`` (default), ``"global"`` or ``"per_pair"`` for the
        per-byte gap ``G``.
    overhead_mode:
        ``"constant"`` (default) or ``"global"`` for the per-message CPU
        overhead ``o``.
    engine:
        ``"compiled"`` (default) — the vectorised lowering of
        :mod:`repro.lp.compiler`, which emits the LP directly as CSR arrays;
        a :class:`~repro.schedgen.columnar.ScheduleBatches` input is lowered
        over its zero-copy, never-frozen execution graph (the fused
        analyze-only path).  ``"symbolic"`` — the per-vertex topological
        sweep (Algorithm 1 as written in the paper), kept as the reference
        the compiled lowering is tested against.
    """
    if latency_mode not in ("global", "per_pair", "constant"):
        raise ValueError(f"unknown latency_mode {latency_mode!r}")
    if gap_mode not in ("constant", "global", "per_pair"):
        raise ValueError(f"unknown gap_mode {gap_mode!r}")
    if overhead_mode not in ("constant", "global"):
        raise ValueError(f"unknown overhead_mode {overhead_mode!r}")
    if engine not in ("compiled", "symbolic"):
        raise ValueError(f"unknown engine {engine!r}; expected 'compiled' or 'symbolic'")
    from ..schedgen.columnar import ScheduleBatches

    if isinstance(graph, ScheduleBatches):
        # the analyze-only graph: zero-copy, cached on the spec
        graph = graph.graph_for(params)

    if engine == "compiled":
        from ..lp.compiler import compile_lp

        compiled = compile_lp(
            graph,
            params,
            latency_mode=latency_mode,
            gap_mode=gap_mode,
            overhead_mode=overhead_mode,
            name=name,
        )
        return GraphLP(
            model=compiled.model,
            graph=graph,
            params=params,
            t=compiled.t,
            latency=compiled.latency,
            gap=compiled.gap,
            overhead=compiled.overhead,
            pair_latency=compiled.pair_latency,
            pair_gap=compiled.pair_gap,
            sink_rows=compiled.sink_rows,
            num_messages=compiled.num_messages,
        )

    model = LPModel(name=name)
    t_var = model.add_var("t", lb=0.0)

    latency_var: Variable | None = None
    gap_var: Variable | None = None
    overhead_var: Variable | None = None
    pair_latency: dict[tuple[int, int], Variable] = {}
    pair_gap: dict[tuple[int, int], Variable] = {}

    if latency_mode == "global":
        latency_var = model.add_var("l", lb=params.L)
    if gap_mode == "global":
        gap_var = model.add_var("G", lb=params.G)
    if overhead_mode == "global":
        overhead_var = model.add_var("o", lb=params.o)

    def pair_latency_var(i: int, j: int) -> Variable:
        key = _pair_key(i, j)
        if key not in pair_latency:
            pair_latency[key] = model.add_var(f"l_{key[0]}_{key[1]}", lb=params.L)
        return pair_latency[key]

    def pair_gap_var(i: int, j: int) -> Variable:
        key = _pair_key(i, j)
        if key not in pair_gap:
            pair_gap[key] = model.add_var(f"G_{key[0]}_{key[1]}", lb=params.G)
        return pair_gap[key]

    def overhead_expr() -> LinearExpr:
        if overhead_var is not None:
            return overhead_var.to_expr()
        return LinearExpr({}, params.o)

    def vertex_cost(v: int) -> LinearExpr:
        k = graph.kind[v]
        if k == VertexKind.CALC:
            return LinearExpr({}, float(graph.cost[v]))
        return overhead_expr()

    def comm_edge_cost(src: int, dst: int) -> LinearExpr:
        size = int(graph.size[dst])
        bandwidth_bytes = max(size - 1, 0)
        i, j = int(graph.rank[src]), int(graph.rank[dst])
        expr = LinearExpr()
        if latency_mode == "global":
            expr = expr + latency_var
        elif latency_mode == "per_pair":
            expr = expr + pair_latency_var(i, j)
        else:
            expr = expr + params.L
        if bandwidth_bytes:
            if gap_mode == "global":
                expr = expr + gap_var * float(bandwidth_bytes)
            elif gap_mode == "per_pair":
                expr = expr + pair_gap_var(i, j) * float(bandwidth_bytes)
            else:
                expr = expr + params.G * bandwidth_bytes
        return expr

    # topological sweep (Algorithm 1)
    completion: dict[int, LinearExpr] = {}
    num_messages = 0
    for v in graph.topological_order():
        v = int(v)
        incoming = list(graph.in_edges(v))
        if not incoming:
            completion[v] = vertex_cost(v)
            continue
        contributions: list[LinearExpr] = []
        for src, _, kind in incoming:
            base = completion[src]
            if kind is EdgeKind.COMM:
                num_messages += 1
                contributions.append(base + comm_edge_cost(src, v))
            else:
                contributions.append(base)
        if len(contributions) == 1:
            completion[v] = contributions[0] + vertex_cost(v)
        else:
            y = model.add_var(f"y{v}", lb=0.0)
            for contribution in contributions:
                model.add_constraint(y.to_expr() >= contribution)
            completion[v] = y.to_expr() + vertex_cost(v)

    sink_rows = []
    for sink in graph.sinks():
        constraint = model.add_constraint(t_var.to_expr() >= completion[int(sink)])
        sink_rows.append(constraint.index)

    model.set_objective(t_var, Sense.MIN)

    return GraphLP(
        model=model,
        graph=graph,
        params=params,
        t=t_var,
        latency=latency_var,
        gap=gap_var,
        overhead=overhead_var,
        pair_latency=pair_latency,
        pair_gap=pair_gap,
        sink_rows=sink_rows,
        num_messages=num_messages,
    )
