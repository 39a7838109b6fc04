"""Projected Newton method (with active-set reduction) on the dual problem.

The dual of the weighting problem is a smooth concave maximisation over the
non-negative orthant.  This solver takes Newton steps restricted to the *free*
variables (those not pinned at zero by the complementary-slackness
conditions), which avoids the stalling that plain projected Newton exhibits
when many constraints are inactive.  Each iteration factorises a dense matrix
of size equal to the number of free constraints, so the method is intended
for problems with up to a couple of thousand constraints; the first-order
:func:`~repro.optimize.dual_ascent.solve_dual_ascent` scales further.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.optimize.result import WeightingSolution
from repro.optimize.weighting_problem import WeightingProblem

__all__ = ["solve_dual_newton"]

#: Dual variables below this value with non-positive gradient are treated as active at 0.
_ACTIVE_TOLERANCE = 1e-14


def solve_dual_newton(
    problem: WeightingProblem,
    *,
    tolerance: float = 1e-9,
    max_iterations: int = 300,
    ridge: float = 1e-10,
    initial_dual: np.ndarray | None = None,
) -> WeightingSolution:
    """Solve ``problem`` by an active-set projected Newton ascent on its dual.

    Parameters
    ----------
    tolerance:
        Target relative duality gap.
    max_iterations:
        Hard cap on Newton iterations (each may include a line search).
    ridge:
        Relative Tikhonov regularisation added to the reduced Hessian before
        factorisation, for numerical robustness.
    initial_dual:
        Starting dual point (e.g. the last dual of a first-order run, from
        its ``diagnostics["dual"]``); defaults to the problem's uniform
        :meth:`~repro.optimize.weighting_problem.WeightingProblem.initial_dual`.
    """
    if problem.structured:
        from repro.exceptions import OptimizationError

        raise OptimizationError(
            "dual-newton factorises a dense Hessian and cannot run on structured "
            "constraint operators; use 'dual-ascent' instead"
        )
    if initial_dual is None:
        dual = problem.initial_dual()
    else:
        dual = np.maximum(np.asarray(initial_dual, dtype=float), 0.0)
    value = problem.dual_value(dual)
    # The default start is uniform; a warm start's first entry may be 0.
    step_memory = max(float(dual.max()), 1e-12)

    best_weights = problem.scale_to_feasible(problem.initial_weights())
    best_primal = problem.objective(best_weights)
    best_dual_value = value
    iterations = 0
    converged = False
    fallback_steps = 0

    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        gradient = problem.dual_gradient(dual)
        free = (dual > _ACTIVE_TOLERANCE) | (gradient > 0)

        newton_direction = None
        if np.any(free):
            hessian = problem.dual_hessian(dual)
            reduced = -hessian[np.ix_(free, free)]
            scale = max(float(np.trace(reduced)) / max(int(free.sum()), 1), 1e-30)
            reduced[np.diag_indices_from(reduced)] += ridge * scale
            # The reduced Hessian can be singular (fewer design queries than
            # constraints); a rank-truncated solve keeps the step inside the
            # range of the Hessian instead of blowing up along its null space.
            try:
                factor = scipy.linalg.cho_factor(reduced, check_finite=False)
                solved = scipy.linalg.cho_solve(factor, gradient[free], check_finite=False)
            except scipy.linalg.LinAlgError:
                solved, *_ = np.linalg.lstsq(reduced, gradient[free], rcond=1e-12)
            candidate_direction = np.zeros_like(dual)
            candidate_direction[free] = solved
            if np.all(np.isfinite(candidate_direction)) and float(candidate_direction @ gradient) > 0:
                newton_direction = candidate_direction
        gradient_direction = np.where(free, gradient, 0.0)

        def line_search(direction: np.ndarray, start_step: float) -> tuple[bool, np.ndarray, float, float]:
            step = start_step
            for _ in range(60):
                trial = np.maximum(dual + step * direction, 0.0)
                trial_value = problem.dual_value(trial)
                if trial_value > value:
                    return True, trial, trial_value, step
                step *= 0.5
            return False, dual, value, step

        improved = False
        if newton_direction is not None:
            improved, candidate, candidate_value, used_step = line_search(newton_direction, 1.0)
        if not improved:
            fallback_steps += 1
            improved, candidate, candidate_value, used_step = line_search(
                gradient_direction, step_memory
            )
            if improved:
                step_memory = max(used_step * 2.0, 1e-12)
        if improved:
            dual = candidate
            value = candidate_value
        best_dual_value = max(best_dual_value, value)

        weights = problem.scale_to_feasible(problem.primal_from_dual(dual))
        primal = problem.objective(weights)
        if primal < best_primal:
            best_primal = primal
            best_weights = weights
        gap = best_primal - best_dual_value
        if best_primal > 0 and gap <= tolerance * best_primal:
            converged = True
            break
        if not improved:
            # No ascent possible along either the reduced Newton or the
            # projected gradient direction: numerically stationary.
            converged = gap <= max(np.sqrt(tolerance), 1e-4) * max(best_primal, 1.0)
            break

    return WeightingSolution(
        weights=best_weights,
        objective_value=best_primal,
        dual_value=best_dual_value,
        duality_gap=best_primal - best_dual_value,
        iterations=iterations,
        converged=converged,
        solver="dual-newton",
        diagnostics={"fallback_steps": fallback_steps, "dual": dual},
    )
