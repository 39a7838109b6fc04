"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import (
    PrivacyParams,
    Strategy,
    Workload,
    eigen_design,
    expected_workload_error,
    minimum_error_bound,
    singular_value_bound,
)
from repro.engine import Planner
from repro.optimize import WeightingProblem, solve_dual_ascent, solve_dual_newton, solve_weighting
from repro.strategies import identity_strategy
from repro.utils.linalg import haar_matrix, hierarchical_matrix

PRIVACY = PrivacyParams(0.5, 1e-4)

matrices = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
)

nonzero_matrices = matrices.filter(lambda m: np.linalg.norm(m) > 1e-6)


class TestWorkloadInvariants:
    @given(nonzero_matrices)
    @settings(max_examples=60, deadline=None)
    def test_gram_is_psd_and_matches_sensitivity(self, matrix):
        workload = Workload(matrix)
        eigenvalues = np.linalg.eigvalsh(workload.gram)
        assert np.all(eigenvalues >= -1e-8)
        assert workload.sensitivity_l2 == pytest.approx(
            np.sqrt(np.max(np.sum(matrix**2, axis=0))), rel=1e-9
        )

    @given(nonzero_matrices)
    @settings(max_examples=60, deadline=None)
    def test_svdb_invariant_under_column_permutation(self, matrix):
        workload = Workload(matrix)
        rng = np.random.default_rng(0)
        permutation = rng.permutation(matrix.shape[1])
        permuted = workload.permute_columns(list(permutation))
        assert singular_value_bound(permuted) == pytest.approx(
            singular_value_bound(workload), rel=1e-6, abs=1e-8
        )

    @given(nonzero_matrices)
    @settings(max_examples=40, deadline=None)
    def test_union_gram_is_sum(self, matrix):
        workload = Workload(matrix)
        doubled = Workload.union([workload, workload])
        np.testing.assert_allclose(doubled.gram, 2 * workload.gram, atol=1e-9)
        assert doubled.query_count == 2 * workload.query_count


class TestErrorInvariants:
    @given(nonzero_matrices, st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_error_invariant_to_strategy_scaling(self, matrix, scale):
        workload = Workload(matrix)
        strategy = identity_strategy(matrix.shape[1])
        scaled = Strategy(strategy.matrix * scale)
        assert expected_workload_error(workload, scaled, PRIVACY) == pytest.approx(
            expected_workload_error(workload, strategy, PRIVACY), rel=1e-9
        )

    @given(nonzero_matrices)
    @settings(max_examples=40, deadline=None)
    def test_lower_bound_below_identity_strategy(self, matrix):
        workload = Workload(matrix)
        error = expected_workload_error(workload, identity_strategy(matrix.shape[1]), PRIVACY)
        assert minimum_error_bound(workload, PRIVACY) <= error + 1e-9

    @given(nonzero_matrices)
    @settings(max_examples=25, deadline=None)
    def test_eigen_design_within_bounds(self, matrix):
        workload = Workload(matrix)
        result = eigen_design(workload, warn_on_no_convergence=False)
        error = expected_workload_error(workload, result.strategy, PRIVACY)
        bound = minimum_error_bound(workload, PRIVACY)
        identity_error = expected_workload_error(
            workload, identity_strategy(matrix.shape[1]), PRIVACY
        )
        assert bound * (1 - 1e-6) <= error
        # The eigen design should never lose badly to the identity strategy.
        assert error <= identity_error * 1.05 + 1e-9


class TestSolverInvariants:
    @given(
        st.integers(2, 8),
        st.integers(2, 8),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_solvers_produce_feasible_and_agreeing_solutions(self, variables, constraints, seed):
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.1, 5.0, size=variables)
        matrix = rng.uniform(0.0, 1.0, size=(constraints, variables))
        matrix[0] += 0.1  # ensure every variable appears in some constraint
        problem = WeightingProblem(costs=costs, constraints=matrix)
        ascent = solve_dual_ascent(problem)
        newton = solve_dual_newton(problem)
        for solution in (ascent, newton):
            assert problem.max_violation(solution.weights) <= 1e-7
            assert solution.dual_value <= solution.objective_value + 1e-6
        assert newton.objective_value == pytest.approx(ascent.objective_value, rel=5e-3)

    @given(
        st.integers(2, 8),
        st.integers(2, 8),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_auto_is_no_worse_than_full_ascent(self, variables, constraints, seed):
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.1, 5.0, size=variables)
        matrix = rng.uniform(0.0, 1.0, size=(constraints, variables))
        matrix[0] += 0.1
        problem = WeightingProblem(costs=costs, constraints=matrix)
        auto = solve_weighting(problem, warn_on_no_convergence=False)
        ascent = solve_dual_ascent(problem)
        assert problem.max_violation(auto.weights) <= 1e-7
        if ascent.converged:
            # auto certifies at least the first-order tolerance (1e-6): its
            # objective is within that of its own dual bound, which no
            # feasible point (the ascent's included) can beat.
            assert auto.converged
            assert auto.objective_value * (1 - 1e-6) <= ascent.objective_value


zero_one_workloads = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 6), st.integers(2, 6)),
    elements=st.sampled_from([0.0, 1.0]),
).filter(lambda m: m.any())


class TestPlannerInvariants:
    @given(zero_one_workloads, st.sampled_from([PRIVACY, PrivacyParams(0.5, 0.0)]))
    @settings(max_examples=30, deadline=None)
    def test_chosen_plan_is_never_worse_than_a_ranked_candidate(self, matrix, privacy):
        plan = Planner(cache=None).plan(Workload(matrix), privacy)
        finite = [c.expected_error for c in plan.candidates if np.isfinite(c.expected_error)]
        assert finite
        assert all(plan.reference_error <= error for error in finite)
        assert sum(c.chosen for c in plan.candidates) == 1


class TestStructuredMatrixInvariants:
    @given(st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_haar_always_square_full_rank(self, size):
        matrix = haar_matrix(size)
        assert matrix.shape == (size, size)
        assert np.linalg.matrix_rank(matrix) == size

    @given(st.integers(1, 40), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_hierarchical_rows_cover_all_cells(self, size, branching):
        matrix = hierarchical_matrix(size, branching)
        assert np.linalg.matrix_rank(matrix) == size
        # The root row is the all-ones total query.
        assert np.array_equal(matrix[0], np.ones(size))
