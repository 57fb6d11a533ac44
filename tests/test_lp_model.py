"""Tests for the LP modelling layer and its HiGHS solver."""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.lp import (
    InfeasibleError,
    LinearExpr,
    LPError,
    LPModel,
    Sense,
    UnboundedError,
)

BACKENDS = ("highs",)


class TestLinearExpr:
    def test_variable_arithmetic(self):
        model = LPModel()
        x = model.add_var("x")
        y = model.add_var("y")
        expr = 2 * x + 3 * y + 1.5
        assert expr.coeffs == {x.index: 2.0, y.index: 3.0}
        assert expr.constant == 1.5

    def test_subtraction_and_negation(self):
        model = LPModel()
        x = model.add_var("x")
        y = model.add_var("y")
        expr = (x - y) - 2.0
        assert expr.coeffs == {x.index: 1.0, y.index: -1.0}
        assert expr.constant == -2.0
        neg = -expr
        assert neg.coeffs[x.index] == -1.0 and neg.constant == 2.0

    def test_zero_coefficients_dropped(self):
        model = LPModel()
        x = model.add_var("x")
        expr = x - x
        assert expr.coeffs == {}

    def test_value_evaluation(self):
        model = LPModel()
        x = model.add_var("x")
        y = model.add_var("y")
        expr = 2 * x + y + 1.0
        assert expr.value([3.0, 4.0]) == pytest.approx(11.0)

    def test_scaling_by_non_number_rejected(self):
        model = LPModel()
        x = model.add_var("x")
        with pytest.raises(TypeError):
            x.to_expr() * "two"

    def test_coerce_rejects_junk(self):
        with pytest.raises(TypeError):
            LinearExpr._coerce(object())


class TestModelConstruction:
    def test_constraint_via_comparison(self):
        model = LPModel()
        x = model.add_var("x")
        c = model.add_constraint(x >= 3.0, name="lb")
        assert c.sense == ">="
        assert c.name == "lb"
        assert model.num_constraints == 1

    def test_add_constraint_requires_constraint(self):
        model = LPModel()
        model.add_var("x")
        with pytest.raises(TypeError):
            model.add_constraint(42)

    def test_invalid_bounds_rejected(self):
        model = LPModel()
        with pytest.raises(ValueError):
            model.add_var("x", lb=2.0, ub=1.0)

    def test_variable_by_name(self):
        model = LPModel()
        model.add_var("alpha")
        beta = model.add_var("beta")
        assert model.variable_by_name("beta") is beta
        with pytest.raises(KeyError):
            model.variable_by_name("gamma")

    def test_set_var_lb_checks_ownership(self):
        model_a, model_b = LPModel(), LPModel()
        x = model_a.add_var("x")
        with pytest.raises(ValueError):
            model_b.set_var_lb(x, 1.0)

    def test_constraint_slack_and_violation(self):
        model = LPModel()
        x = model.add_var("x")
        c = model.add_constraint(x >= 2.0)
        assert c.violation([1.0]) == pytest.approx(1.0)
        assert c.violation([3.0]) == 0.0
        assert c.slack([3.0]) == pytest.approx(1.0)


@pytest.mark.parametrize("backend", BACKENDS)
class TestSolvers:
    def test_simple_minimisation(self, backend):
        # min x + y  s.t. x + y >= 4, x >= 1
        model = LPModel()
        x = model.add_var("x", lb=1.0)
        y = model.add_var("y")
        model.add_constraint(x + y >= 4.0)
        model.set_objective(x + y, Sense.MIN)
        solution = model.solve(backend=backend)
        assert solution.objective == pytest.approx(4.0)

    def test_simple_maximisation(self, backend):
        # max x + 2y  s.t. x <= 3, y <= 2
        model = LPModel()
        x = model.add_var("x", ub=3.0)
        y = model.add_var("y", ub=2.0)
        model.set_objective(x + 2 * y, Sense.MAX)
        solution = model.solve(backend=backend)
        assert solution.objective == pytest.approx(3.0 + 4.0)
        assert solution.value(x) == pytest.approx(3.0)
        assert solution.value(y) == pytest.approx(2.0)

    def test_classic_production_problem(self, backend):
        # max 3a + 5b s.t. a <= 4; 2b <= 12; 3a + 2b <= 18  -> optimum 36 at (2, 6)
        model = LPModel()
        a = model.add_var("a")
        b = model.add_var("b")
        model.add_constraint(a.to_expr() <= 4.0)
        model.add_constraint(2 * b <= 12.0)
        model.add_constraint(3 * a + 2 * b <= 18.0)
        model.set_objective(3 * a + 5 * b, Sense.MAX)
        solution = model.solve(backend=backend)
        assert solution.objective == pytest.approx(36.0)
        assert solution.value(a) == pytest.approx(2.0)
        assert solution.value(b) == pytest.approx(6.0)

    def test_infeasible_detected(self, backend):
        model = LPModel()
        x = model.add_var("x", ub=1.0)
        model.add_constraint(x >= 2.0)
        model.set_objective(x, Sense.MIN)
        with pytest.raises(InfeasibleError):
            model.solve(backend=backend)

    def test_unbounded_detected(self, backend):
        model = LPModel()
        x = model.add_var("x")
        model.set_objective(x, Sense.MAX)
        with pytest.raises((UnboundedError, LPError)):
            model.solve(backend=backend)

    def test_reduced_cost_of_lower_bound(self, backend):
        # min t s.t. t >= l + 2, l >= 5  ->  dT/d(lb of l) = 1
        model = LPModel()
        t = model.add_var("t")
        l = model.add_var("l", lb=5.0)
        model.add_constraint(t >= l + 2.0)
        model.set_objective(t, Sense.MIN)
        solution = model.solve(backend=backend)
        assert solution.objective == pytest.approx(7.0)
        assert solution.reduced_cost(l) == pytest.approx(1.0)

    def test_reduced_cost_zero_when_slack(self, backend):
        # min t s.t. t >= 10, t >= l + 2, l >= 1: l's bound is not binding
        model = LPModel()
        t = model.add_var("t")
        l = model.add_var("l", lb=1.0)
        model.add_constraint(t >= 10.0)
        model.add_constraint(t >= l + 2.0)
        model.set_objective(t, Sense.MIN)
        solution = model.solve(backend=backend)
        assert solution.objective == pytest.approx(10.0)
        assert solution.reduced_cost(l) == pytest.approx(0.0, abs=1e-9)

    def test_objective_constant_preserved(self, backend):
        model = LPModel()
        x = model.add_var("x", lb=2.0)
        model.set_objective(x + 10.0, Sense.MIN)
        solution = model.solve(backend=backend)
        assert solution.objective == pytest.approx(12.0)

    def test_tight_constraints(self, backend):
        model = LPModel()
        t = model.add_var("t")
        model.add_constraint(t >= 3.0)
        model.add_constraint(t >= 1.0)
        model.set_objective(t, Sense.MIN)
        solution = model.solve(backend=backend)
        assert 0 in solution.tight_constraints()
        assert 1 not in solution.tight_constraints()

    def test_empty_model_rejected(self, backend):
        model = LPModel()
        with pytest.raises(LPError):
            model.solve(backend=backend)


class TestBackendAgreement:
    def test_random_problems_agree(self):
        # the model -> assembler lowering against linprog on the raw arrays
        rng = np.random.default_rng(42)
        for trial in range(20):
            n, m = 4, 6
            model = LPModel(name=f"random{trial}")
            for i in range(n):
                model.add_var(f"x{i}", lb=0.0, ub=10.0)
            # constraints sum a_i x_i <= b with non-negative coefficients so the
            # problem is always feasible (x = 0) and bounded (upper bounds)
            A = rng.uniform(0.0, 2.0, size=(m, n))
            b = rng.uniform(5.0, 20.0, size=m)
            for row, rhs in zip(A, b):
                expr = LinearExpr({i: float(c) for i, c in enumerate(row)}, 0.0)
                model.add_constraint(expr <= float(rhs))
            c = rng.uniform(0.1, 1.0, size=n)
            objective = LinearExpr({i: float(v) for i, v in enumerate(c)}, 0.0)
            model.set_objective(objective, Sense.MAX)
            raw = linprog(-c, A_ub=A, b_ub=b, bounds=[(0.0, 10.0)] * n, method="highs")
            assert raw.status == 0
            solution = model.solve()
            assert solution.objective == pytest.approx(-raw.fun, rel=1e-6, abs=1e-6)

    def test_duals_agree_on_small_problem(self):
        # max 2a + b  s.t. a + b <= 10, a <= 6  ->  (a, b) = (6, 4), objective 16;
        # both rows bind with shadow prices 1 (= b's cost) and 1 (= 2 - 1)
        model = LPModel()
        a = model.add_var("a")
        b = model.add_var("b")
        c1 = model.add_constraint(a + b <= 10.0)
        c2 = model.add_constraint(a.to_expr() <= 6.0)
        model.set_objective(2 * a + b, Sense.MAX)
        solution = model.solve()
        assert solution.objective == pytest.approx(16.0)
        assert solution.value(a) == pytest.approx(6.0)
        assert solution.value(b) == pytest.approx(4.0)
        assert abs(solution.dual(c1)) == pytest.approx(1.0, abs=1e-6)
        assert abs(solution.dual(c2)) == pytest.approx(1.0, abs=1e-6)
