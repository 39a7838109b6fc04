"""Convex-optimisation substrate for strategy selection.

The entry point is :func:`solve_weighting`, which dispatches a
:class:`~repro.optimize.weighting_problem.WeightingProblem` to one of three
backends:

* ``"dual-ascent"`` — projected gradient on the dual (scales to large sizes,
  runs on structured constraint operators);
* ``"dual-newton"`` — damped active-set Newton on the dual (dense problems of
  up to :data:`NEWTON_CONSTRAINT_LIMIT` constraints);
* ``"scipy"`` — SLSQP reference implementation for small problems.

The default, ``"auto"``, starts with dual ascent and hands a stalled solve
to dual Newton; :func:`solve_weighting` documents when.
"""

from __future__ import annotations

import warnings

from repro.exceptions import ConvergenceWarning, OptimizationError
from repro.optimize.dual_ascent import (
    DEFAULT_TOLERANCE,
    solve_dual_ascent,
    solve_dual_ascent_batch,
)
from repro.optimize.exact_gram import (
    GramDescentResult,
    optimal_gram_strategy,
    strategy_from_gram,
)
from repro.optimize.dual_newton import solve_dual_newton
from repro.optimize.l1_weighting import l1_weighting_problem, solve_l1_weights
from repro.optimize.result import WeightingSolution
from repro.optimize.scipy_backend import solve_scipy
from repro.optimize.weighting_problem import WeightingProblem

__all__ = [
    "GramDescentResult",
    "WeightingProblem",
    "WeightingSolution",
    "l1_weighting_problem",
    "optimal_gram_strategy",
    "solve_dual_ascent",
    "solve_dual_ascent_batch",
    "solve_dual_newton",
    "solve_l1_weights",
    "solve_scipy",
    "solve_weighting",
    "solve_weighting_batch",
    "strategy_from_gram",
]

#: Problems with more constraints than this are never escalated to the
#: second-order (dense Hessian) fallback solver.
NEWTON_CONSTRAINT_LIMIT = 2200

_SOLVERS = {
    "dual-newton": solve_dual_newton,
    "dual-ascent": solve_dual_ascent,
    "scipy": solve_scipy,
}

#: The ``auto`` options each stage accepts.
_ASCENT_OPTIONS = ("tolerance", "max_iterations", "initial_step")
_NEWTON_OPTIONS = ("tolerance", "max_iterations")


def _escalates_early(problem: WeightingProblem) -> bool:
    """Whether ``auto`` hands ``problem`` to Newton after a short ascent.

    With fewer design queries than constraints (``r < k``) the dual Hessian
    ``C diag(s) C^T`` has rank at most ``r``: the dual is not strongly
    concave and first-order ascent crawls.  One Newton step costs about
    ``k**2 * r`` flops and one ascent step about ``k * r``, so ``k`` ascent
    steps cost about one Newton step.
    """
    return (
        not problem.structured
        and problem.variable_count < problem.constraint_count <= NEWTON_CONSTRAINT_LIMIT
    )


def _short_budget(problem: WeightingProblem, options: dict) -> dict:
    """``options`` with the ascent capped at ``k`` iterations (the early hand-off)."""
    cap = problem.constraint_count
    return {**options, "max_iterations": min(options.get("max_iterations", cap), cap)}


def _second_order(
    problem: WeightingProblem, solution: WeightingSolution, short: bool, options: dict
) -> WeightingSolution:
    """The ``auto`` policy after its first-order stage ``solution``.

    ``short`` says the stage ran the early-hand-off budget: an unconverged
    result then continues as Newton from the ascent's last dual.  The warm
    Newton result is kept when it certifies a relative gap within the
    first-order tolerance — the standard any accepted ascent result meets
    (Newton's own stall test is looser).  Otherwise the full path runs
    instead — a full-budget ascent, then a cold Newton, keeping the better —
    so no problem ends worse than without the early hand-off.
    """
    ascent = {k: v for k, v in options.items() if k in _ASCENT_OPTIONS}
    newton = {k: v for k, v in options.items() if k in _NEWTON_OPTIONS}
    first_order_iterations = solution.iterations
    escalated = False
    if short and not solution.converged:
        warm = solve_dual_newton(problem, initial_dual=solution.diagnostics["dual"], **newton)
        if warm.converged and warm.relative_gap <= options.get("tolerance", DEFAULT_TOLERANCE):
            solution, escalated = warm, True
        else:
            solution = solve_dual_ascent(problem, **ascent)
            first_order_iterations += solution.iterations
    if (
        not solution.converged
        and not problem.structured
        and problem.constraint_count <= NEWTON_CONSTRAINT_LIMIT
    ):
        cold = solve_dual_newton(problem, **newton)
        if cold.objective_value <= solution.objective_value or cold.converged:
            solution, escalated = cold, True
    solution.diagnostics.update(
        first_order_iterations=first_order_iterations, escalated=escalated
    )
    return solution


def _warn_unless_converged(solution: WeightingSolution) -> None:
    if not solution.converged:
        warnings.warn(
            f"weighting solver {solution.solver!r} stopped after "
            f"{solution.iterations} iterations with relative gap "
            f"{solution.relative_gap:.2e}",
            ConvergenceWarning,
            stacklevel=3,
        )


def solve_weighting(
    problem: WeightingProblem,
    *,
    solver: str = "auto",
    warn_on_no_convergence: bool = True,
    **options,
) -> WeightingSolution:
    """Solve a weighting problem with the requested (or automatic) backend.

    ``solver`` is one of ``"auto"``, ``"dual-newton"``, ``"dual-ascent"`` or
    ``"scipy"``.  Extra keyword arguments are forwarded to the backend.

    ``"auto"`` runs dual ascent first.  A dense rank-deficient problem
    (fewer design queries than constraints, at most
    :data:`NEWTON_CONSTRAINT_LIMIT` constraints) gets ``k`` ascent
    iterations — about one Newton step's work — and then continues as dual
    Newton warm-started from the ascent's last dual.  Every other problem
    gets the full ascent budget, with a cold dual Newton only if that stalls
    (and the Hessian is affordable).  The result's ``diagnostics`` record
    ``first_order_iterations`` and whether the solve ``escalated`` to Newton.
    """
    if solver == "auto":
        short = _escalates_early(problem)
        first_order = solve_dual_ascent(
            problem, **(_short_budget(problem, options) if short else options)
        )
        solution = _second_order(problem, first_order, short, options)
    else:
        try:
            backend = _SOLVERS[solver]
        except KeyError:
            raise OptimizationError(
                f"unknown solver {solver!r}; choose from {sorted(_SOLVERS)} or 'auto'"
            ) from None
        solution = backend(problem, **options)
    if warn_on_no_convergence:
        _warn_unless_converged(solution)
    return solution


def solve_weighting_batch(
    problems,
    *,
    solver: str = "auto",
    warn_on_no_convergence: bool = True,
    **options,
) -> "list[WeightingSolution]":
    """Solve a family of weighting problems, batching where the shape allows.

    When the problems are all dense with a shared constraint row count (the
    Sec. 4.2 stage-1 per-group solves), the first-order phase runs as one
    :func:`solve_dual_ascent_batch` lockstep — a single stacked backend
    contraction per gradient/line-search step instead of one skinny
    matrix-vector product per problem per step.  Under ``solver="auto"`` any
    problem that fails to converge then continues with the second-order
    stage individually, exactly as :func:`solve_weighting` would; the
    lockstep runs the early-hand-off budget when every problem qualifies
    for it (the Sec. 4.2 groups always do) and the full budget otherwise.
    Any shape mismatch (structured operators, differing row counts or
    powers) or an explicit non-first-order ``solver`` falls back to
    sequential :func:`solve_weighting` calls, so results never depend on
    whether batching was possible in kind — only in speed.
    """
    problems = list(problems)
    if solver in ("auto", "dual-ascent") and len(problems) > 1:
        batchable = (
            all(not problem.structured for problem in problems)
            and len({problem.constraint_count for problem in problems}) == 1
            and len({float(problem.power) for problem in problems}) == 1
        )
        if batchable:
            first_order = {k: v for k, v in options.items() if k in _ASCENT_OPTIONS}
            short = solver == "auto" and all(_escalates_early(problem) for problem in problems)
            if short:
                first_order = _short_budget(problems[0], first_order)
            solutions = solve_dual_ascent_batch(problems, **first_order)
            if solver == "auto":
                solutions = [
                    _second_order(problem, solution, short, options)
                    for problem, solution in zip(problems, solutions)
                ]
            if warn_on_no_convergence:
                for solution in solutions:
                    _warn_unless_converged(solution)
            return solutions
    return [
        solve_weighting(
            problem,
            solver=solver,
            warn_on_no_convergence=warn_on_no_convergence,
            **options,
        )
        for problem in problems
    ]
