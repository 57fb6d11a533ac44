"""Backend registry, incremental assembler, and HiGHS certification tests."""

import numpy as np
import pytest

from repro import LatencyAnalyzer
from repro.core import build_lp
from repro.lp import (
    LPModel,
    LPSolution,
    Sense,
    Status,
    assemble,
    default_registry,
    solve_highs,
)
from repro.lp.backends import BackendRegistry
from repro.network.params import LogGPSParams
from repro.simulator import simulate
from repro.testing import build_random_dag, build_running_example

PAPER_PARAMS = LogGPSParams(L=0.0, o=0.0, g=0.0, G=0.005, S=256 * 1024, P=2)
RANDOM_PARAMS = LogGPSParams(L=1.0, o=0.3, g=0.0, G=0.001)


class TestRegistry:
    def test_default_backends_registered(self):
        assert default_registry.names() == ["highs"]

    def test_unknown_backend_lists_known_names(self):
        model = LPModel()
        model.add_var("x", lb=0.0)
        with pytest.raises(ValueError, match="highs"):
            model.solve(backend="gurobi")

    def test_get_returns_spec(self):
        spec = default_registry.get("highs")
        assert spec.name == "highs"
        assert "HiGHS" in spec.description

    def test_register_and_solve_custom_backend(self):
        registry = BackendRegistry()

        @registry.register("constant", description="test stub")
        def solve_constant(model, **options):
            return LPSolution(
                status=Status.OPTIMAL,
                objective=42.0,
                values=np.zeros(model.num_vars),
                backend="constant",
            )

        model = LPModel()
        model.add_var("x")
        solution = registry.solve(model, backend="constant")
        assert solution.objective == 42.0
        assert len(registry) == 1 and "constant" in registry

    def test_duplicate_registration_rejected_unless_replace(self):
        registry = BackendRegistry()

        @registry.register("b")
        def first(model, **options):  # pragma: no cover - stub
            raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):
            registry.register("b")(first)
        registry.register("b", replace=True)(first)
        registry.unregister("b")
        assert "b" not in registry


class TestAssembler:
    def test_assembly_cached_until_structure_changes(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        first = assemble(lp.model)
        assert assemble(lp.model) is first
        lp.model.add_var("extra", lb=0.0)
        assert assemble(lp.model) is not first

    def test_bound_change_keeps_sparse_matrix(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        before = assemble(lp.model)
        matrix = before.A_ub
        lp.set_latency_bound(3.0)
        after = assemble(lp.model)
        assert after is before  # refreshed in place
        assert after.A_ub is matrix  # CSR untouched
        assert after.lb[lp.latency.index] == 3.0

    def test_objective_change_refreshes_c(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        assembled = assemble(lp.model)
        lp.model.set_objective(lp.latency, Sense.MAX)
        refreshed = assemble(lp.model)
        assert refreshed is assembled
        assert refreshed.obj_sign == -1.0
        assert refreshed.c[lp.latency.index] == -1.0

    def test_pop_constraint_invalidates_assembly(self, running_example, paper_params):
        lp = build_lp(running_example, paper_params)
        lp.set_latency_bound(0.0)
        baseline = lp.solve_runtime(L=0.5).objective
        lp.solve_max_latency(2.0)  # adds then pops the runtime-bound row
        assert lp.solve_runtime(L=0.5).objective == pytest.approx(baseline)

    def test_solutions_identical_to_fresh_model(self, running_example, paper_params):
        cached = build_lp(running_example, paper_params)
        for L in (0.0, 0.25, 0.5, 1.0):
            fresh = build_lp(running_example, paper_params)
            assert cached.solve_runtime(L=L).objective == pytest.approx(
                fresh.solve_runtime(L=L).objective, abs=1e-9
            )


def _assert_kkt(model: LPModel, solution: LPSolution, tol: float = 1e-6) -> None:
    """Certify ``solution`` optimal from the lowered arrays alone.

    The graph LPs are minimisations with only lower bounds, lowered to
    ``min c^T x  s.t.  A x <= b,  x >= lb``.  Primal and dual feasibility,
    stationarity ``A^T y + r = c`` and a zero duality gap prove the primal
    values, the duals ``y`` and the reduced costs ``r`` optimal without a
    second solver.
    """
    lowered = assemble(model)
    assert lowered.obj_sign == 1.0 and np.all(np.isinf(lowered.ub))
    x, y, r = solution.values, solution.duals, solution.reduced_costs
    assert y is not None and r is not None
    scale = tol * max(1.0, abs(solution.objective))
    assert np.all(lowered.A_ub @ x <= lowered.b_ub + scale)
    assert np.all(x >= lowered.lb - scale)
    assert np.all(y <= tol) and np.all(r >= -tol)
    np.testing.assert_allclose(lowered.A_ub.T @ y + r, lowered.c, atol=tol)
    finite = np.isfinite(lowered.lb)
    assert np.all(np.abs(r[~finite]) <= tol)
    dual_objective = lowered.b_ub @ y + lowered.lb[finite] @ r[finite] + lowered.obj_const
    assert dual_objective == pytest.approx(solution.objective, abs=scale)


def _assert_bracketed(slope: float, curve, x: float, eps: float = 1e-4) -> None:
    """``slope`` is a subgradient of the convex, non-decreasing ``curve`` at
    ``x``: it lies between the backward and forward difference quotients
    (between 0 and the forward one at the domain's end ``x = 0``)."""
    below = (curve(x) - curve(x - eps)) / eps if x >= eps else 0.0
    above = (curve(x + eps) - curve(x)) / eps
    assert below - 1e-6 <= slope <= above + 1e-6


def _assert_parity(graph, params: LogGPSParams, L: float) -> None:
    """HiGHS against the simulator: ``T(L)``, ``λ_L`` and a KKT certificate."""
    lp = build_lp(graph, params)
    solution = lp.solve_runtime(L=L)
    _assert_kkt(lp.model, solution)

    def runtime(latency: float) -> float:
        return simulate(graph, params.with_latency(latency)).runtime

    assert solution.objective == pytest.approx(runtime(L), abs=1e-6)
    _assert_bracketed(lp.latency_sensitivity(solution), runtime, L)


class TestBackendParity:
    """The HiGHS answers checked without a second solver: optimality from
    the KKT conditions, ``T`` and ``λ_L`` / ``λ_G`` against the simulator."""

    def test_running_example_parity(self, paper_params):
        for L in (0.0, 0.2, 0.5, 1.0, 5.0):
            _assert_parity(build_running_example(), paper_params, L)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_dag_parity(self, seed):
        _assert_parity(build_random_dag(seed), RANDOM_PARAMS, L=1.0 + 0.37 * seed)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_dag_parity_with_symbolic_gap(self, seed):
        # λ_G (the reduced cost of the symbolic gap) is a subgradient of the
        # simulated T(G); RANDOM_PARAMS has g = 0, so G alone prices bytes
        graph = build_random_dag(seed, nranks=4, rounds=8)
        analyzer = LatencyAnalyzer(graph, RANDOM_PARAMS, gap_symbolic=True)

        def runtime(G: float) -> float:
            return simulate(graph, RANDOM_PARAMS.replace(G=G)).runtime

        _assert_bracketed(analyzer.bandwidth_sensitivity(), runtime, RANDOM_PARAMS.G)

    def test_direct_backend_functions_agree(self, paper_params):
        lp = build_lp(build_running_example(), paper_params)
        lp.set_latency_bound(0.5)
        assert solve_highs(lp.model).objective == pytest.approx(
            lp.model.solve().objective, abs=1e-9
        )
        assert lp.model.solve().objective == pytest.approx(1.615)
