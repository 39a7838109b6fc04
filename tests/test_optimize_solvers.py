"""Tests for the weighting solvers (dual ascent, dual Newton, scipy, dispatcher)."""

import warnings

import numpy as np
import pytest

import repro.core.reductions
import repro.optimize
from repro.core.eigen_design import eigen_queries, factorized_eigen_queries
from repro.core.reductions import principal_vectors
from repro.core.workload import Workload
from repro.exceptions import ConvergenceWarning, OptimizationError
from repro.optimize import (
    NEWTON_CONSTRAINT_LIMIT,
    WeightingProblem,
    l1_weighting_problem,
    solve_dual_ascent,
    solve_dual_newton,
    solve_l1_weights,
    solve_scipy,
    solve_weighting,
    solve_weighting_batch,
)
from repro.utils.operators import KroneckerConstraints
from repro.workloads import (
    all_range_queries_1d,
    cdf_workload,
    kway_marginals,
    kway_range_marginals,
    prefix_workload,
)


def _eigen_problem(workload) -> WeightingProblem:
    values, queries = eigen_queries(workload)
    return WeightingProblem(costs=values, constraints=(queries**2).T)


@pytest.fixture(scope="module")
def range_problem() -> WeightingProblem:
    return _eigen_problem(all_range_queries_1d(32))


ALL_SOLVERS = [solve_dual_ascent, solve_dual_newton, solve_scipy]


class TestSolverAgreement:
    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_feasible_solution(self, range_problem, solver):
        solution = solver(range_problem)
        assert range_problem.max_violation(solution.weights) <= 1e-8
        assert np.all(solution.weights >= 0)

    def test_all_backends_agree_on_optimum(self, range_problem):
        values = [solver(range_problem).objective_value for solver in ALL_SOLVERS]
        assert max(values) == pytest.approx(min(values), rel=1e-3)

    @pytest.mark.parametrize("solver", [solve_dual_ascent, solve_dual_newton])
    def test_duality_gap_certificate(self, range_problem, solver):
        solution = solver(range_problem)
        assert solution.converged
        assert solution.relative_gap <= 1e-5
        assert solution.dual_value <= solution.objective_value + 1e-9

    def test_agreement_on_marginal_workload(self):
        problem = _eigen_problem(kway_marginals([4, 4, 4], 2))
        newton = solve_dual_newton(problem)
        ascent = solve_dual_ascent(problem)
        assert newton.objective_value == pytest.approx(ascent.objective_value, rel=1e-4)

    def test_agreement_on_skewed_cdf_workload(self):
        problem = _eigen_problem(cdf_workload(48))
        newton = solve_dual_newton(problem)
        reference = solve_scipy(problem)
        assert newton.objective_value == pytest.approx(reference.objective_value, rel=1e-3)

    def test_known_closed_form_diagonal_case(self):
        # With an identity design, min sum c_i/u_i s.t. u_i <= 1 has solution
        # u_i = 1 and objective sum(c_i).
        costs = np.array([3.0, 5.0, 2.0])
        problem = WeightingProblem(costs=costs, constraints=np.eye(3))
        for solver in ALL_SOLVERS:
            solution = solver(problem)
            assert solution.objective_value == pytest.approx(costs.sum(), rel=1e-6)
            np.testing.assert_allclose(solution.weights, 1.0, rtol=1e-4)

    def test_shared_constraint_closed_form(self):
        # One constraint u1 + u2 <= 1 with costs (4, 1): optimal u = (2/3, 1/3),
        # objective = 4/(2/3) + 1/(1/3) = 9 (Cauchy-Schwarz: (sum sqrt(c_i))^2).
        problem = WeightingProblem(
            costs=np.array([4.0, 1.0]), constraints=np.array([[1.0, 1.0]])
        )
        for solver in ALL_SOLVERS:
            solution = solver(problem)
            assert solution.objective_value == pytest.approx(9.0, rel=1e-6)


class TestDispatcher:
    def test_auto_solver_converges(self, range_problem):
        solution = solve_weighting(range_problem)
        assert solution.converged

    def test_named_solver(self, range_problem):
        solution = solve_weighting(range_problem, solver="dual-newton")
        assert solution.solver == "dual-newton"

    def test_unknown_solver(self, range_problem):
        with pytest.raises(OptimizationError):
            solve_weighting(range_problem, solver="simplex")

    def test_convergence_warning_emitted(self, range_problem):
        from repro.exceptions import ConvergenceWarning

        with pytest.warns(ConvergenceWarning):
            solve_weighting(range_problem, solver="dual-ascent", max_iterations=2)

    def test_options_forwarded(self, range_problem):
        solution = solve_weighting(range_problem, solver="dual-ascent", max_iterations=3,
                                   warn_on_no_convergence=False)
        assert solution.iterations <= 3


class TestL1Weighting:
    def test_problem_uses_absolute_values(self):
        design = np.array([[1.0, -1.0], [0.0, 2.0]])
        problem = l1_weighting_problem(design, np.array([1.0, 1.0]))
        np.testing.assert_allclose(problem.constraints, np.abs(design).T)
        assert problem.power == 2.0

    def test_l1_weights_feasible(self):
        workload = all_range_queries_1d(16)
        values, queries = eigen_queries(workload)
        solution = solve_l1_weights(queries, values)
        # L1 column norms of the weighted strategy stay within 1.
        weighted = solution.weights[:, None] * queries
        assert np.abs(weighted).sum(axis=0).max() <= 1 + 1e-6

    def test_l1_closed_form_single_query(self):
        # One design query (1, 1), cost 1: constraint lambda * 1 <= 1 so
        # lambda = 1 and objective = 1.
        solution = solve_l1_weights(np.array([[1.0, 1.0]]), np.array([1.0]))
        assert solution.objective_value == pytest.approx(1.0, rel=1e-5)
        assert solution.weights[0] == pytest.approx(1.0, rel=1e-5)


# ---------------------------------------------------------------------------
# The ``auto`` escalation policy
# ---------------------------------------------------------------------------


def _dashboard_workload() -> Workload:
    """A 512-cell SQL dashboard: 16 age x 16 income x 2 sex buckets, 98 rows.

    Six bucket-aligned statements (two filtered totals, two two-attribute
    group-bys over a range, two one-attribute group-bys): 94 eigen-queries
    against 512 cell constraints.
    """
    a0, a1, i0, i1, j0, j1, b0, b1, c0, c1, s, t = 2, 8, 6, 16, 8, 14, 5, 16, 4, 13, 1, 1
    every = slice(None)
    boxes = [(slice(a0, a1), every, every), (every, slice(i0, i1), slice(s, s + 1))]
    boxes += [(slice(a, a + 1), slice(j0, j1), slice(x, x + 1)) for a in range(16) for x in range(2)]
    boxes += [(slice(b0, b1), slice(i, i + 1), slice(x, x + 1)) for i in range(16) for x in range(2)]
    boxes += [(slice(a, a + 1), every, slice(t, t + 1)) for a in range(16)]
    boxes += [(slice(c0, c1), slice(i, i + 1), every) for i in range(16)]
    rows = np.zeros((len(boxes), 16, 16, 2))
    for row, box in zip(rows, boxes):
        row[box] = 1.0
    return Workload(rows.reshape(len(boxes), 512), name="dashboard")


def _without_early_hand_off(problem) -> "repro.optimize.WeightingSolution":
    """``auto`` as it runs for every problem outside the early hand-off."""
    ascent = solve_dual_ascent(problem)
    if ascent.converged:
        return ascent
    newton = solve_dual_newton(problem)
    if newton.objective_value <= ascent.objective_value or newton.converged:
        return newton
    return ascent


def _solve_without_warnings(problem, **options):
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        return solve_weighting(problem, **options)


RANK_DEFICIENT = {
    "dashboard": _dashboard_workload,
    "range-marginals-8x8x8": lambda: kway_range_marginals([8, 8, 8], 2),
}


@pytest.fixture(scope="module", params=sorted(RANK_DEFICIENT))
def rank_deficient_problem(request) -> WeightingProblem:
    return _eigen_problem(RANK_DEFICIENT[request.param]())


class TestAutoPolicy:
    def test_rank_deficient_problem_escalates_after_k_ascent_steps(self, rank_deficient_problem):
        problem = rank_deficient_problem
        assert problem.variable_count < problem.constraint_count <= NEWTON_CONSTRAINT_LIMIT
        auto = _solve_without_warnings(problem)
        assert auto.converged
        assert auto.diagnostics["escalated"]
        assert auto.solver == "dual-newton"
        assert auto.diagnostics["first_order_iterations"] <= problem.constraint_count
        full = solve_dual_ascent(problem)
        assert auto.objective_value <= full.objective_value
        assert problem.max_violation(auto.weights) <= 1e-9
        # The ascent's dual is a warm start: Newton needs fewer steps from it.
        assert auto.iterations < solve_dual_newton(problem).iterations

    @pytest.mark.parametrize(
        "workload",
        [all_range_queries_1d(32), prefix_workload(32)],
        ids=["all-range", "prefix"],
    )
    def test_full_rank_problem_keeps_plain_ascent_bit_for_bit(self, workload):
        problem = _eigen_problem(workload)
        assert problem.variable_count >= problem.constraint_count
        ascent = solve_dual_ascent(problem)
        assert ascent.converged
        auto = _solve_without_warnings(problem)
        np.testing.assert_array_equal(auto.weights, ascent.weights)
        assert auto.iterations == ascent.iterations
        assert auto.diagnostics["first_order_iterations"] == ascent.iterations
        assert not auto.diagnostics["escalated"]

    def test_structured_problem_keeps_plain_ascent_bit_for_bit(self):
        # Rank 8 over 64 cells, but served matrix-free: no Newton stage.
        workload = Workload.kronecker([all_range_queries_1d(8), Workload(np.ones((1, 8)))])
        basis, values, positions = factorized_eigen_queries(workload)
        problem = WeightingProblem(costs=values, constraints=KroneckerConstraints(basis, positions))
        assert problem.structured
        assert problem.variable_count < problem.constraint_count
        auto = solve_weighting(problem, warn_on_no_convergence=False)
        ascent = solve_dual_ascent(problem)
        np.testing.assert_array_equal(auto.weights, ascent.weights)
        assert auto.iterations == ascent.iterations

    def test_problem_above_the_newton_limit_keeps_plain_ascent_bit_for_bit(self):
        rng = np.random.default_rng(3)
        constraints = rng.uniform(size=(NEWTON_CONSTRAINT_LIMIT + 1, 6))
        problem = WeightingProblem(costs=rng.uniform(1, 2, size=6), constraints=constraints)
        auto = solve_weighting(problem, max_iterations=40, warn_on_no_convergence=False)
        ascent = solve_dual_ascent(problem, max_iterations=40)
        np.testing.assert_array_equal(auto.weights, ascent.weights)
        assert auto.iterations == ascent.iterations

    def test_batch_of_full_rank_problems_keeps_the_lockstep_bit_for_bit(self):
        from repro.optimize import solve_dual_ascent_batch

        rng = np.random.default_rng(4)
        problems = [
            WeightingProblem(costs=rng.uniform(1, 2, size=r), constraints=rng.uniform(size=(6, r)))
            for r in (6, 7, 9)
        ]
        lockstep = solve_dual_ascent_batch(problems)
        for auto, plain in zip(solve_weighting_batch(problems), lockstep):
            assert plain.converged
            np.testing.assert_array_equal(auto.weights, plain.weights)

    @staticmethod
    def _principal_vectors_problems(monkeypatch):
        """The reduced problems ``principal_vectors`` solves (64x17 and 64x7)."""
        seen = []
        real = repro.core.reductions.solve_weighting

        def recording(problem, **options):
            seen.append(problem)
            return real(problem, **options)

        monkeypatch.setattr(repro.core.reductions, "solve_weighting", recording)
        workload = all_range_queries_1d(64)
        principal_vectors(workload, fraction=0.25)
        principal_vectors(workload, count=6)
        monkeypatch.undo()
        return seen

    def test_principal_vectors_problems_converge_no_worse(self, monkeypatch):
        for problem in self._principal_vectors_problems(monkeypatch):
            assert problem.variable_count < problem.constraint_count
            auto = _solve_without_warnings(problem)
            reference = _without_early_hand_off(problem)
            assert auto.converged
            assert auto.objective_value <= reference.objective_value * (1 + 1e-9)

    @pytest.mark.parametrize("stall", ["not-converged", "gap-above-first-order-tolerance"])
    def test_uncertified_warm_newton_falls_back_to_the_full_path(self, monkeypatch, stall):
        problems = self._principal_vectors_problems(monkeypatch)
        real = repro.optimize.solve_dual_newton

        def stalling_when_warm(problem, **options):
            solution = real(problem, **options)
            if options.get("initial_dual") is not None:
                if stall == "not-converged":
                    solution.converged = False
                else:  # converged by Newton's looser stall test only
                    solution.duality_gap = 1e-5 * solution.objective_value
                    solution.dual_value = solution.objective_value - solution.duality_gap
            return solution

        monkeypatch.setattr(repro.optimize, "solve_dual_newton", stalling_when_warm)
        for problem in problems:
            reference = _without_early_hand_off(problem)
            auto = _solve_without_warnings(problem)
            assert auto.solver == reference.solver
            np.testing.assert_array_equal(auto.weights, reference.weights)
            assert auto.objective_value == reference.objective_value
            # The short stage plus the full-budget rerun.
            assert auto.diagnostics["first_order_iterations"] > problem.constraint_count

    def test_newton_warm_started_at_a_converged_dual_stops_at_once(self, range_problem):
        cold = solve_dual_newton(range_problem)
        assert cold.converged
        warm = solve_dual_newton(range_problem, initial_dual=cold.diagnostics["dual"])
        assert warm.converged
        assert warm.iterations <= 2
        assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9)

    def test_ascent_reports_its_last_dual(self, range_problem):
        solution = solve_dual_ascent(range_problem, max_iterations=5)
        dual = solution.diagnostics["dual"]
        assert dual.shape == (range_problem.constraint_count,)
        assert range_problem.dual_value(dual) == pytest.approx(solution.dual_value)
