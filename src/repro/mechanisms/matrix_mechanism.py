"""The (epsilon, delta)-matrix mechanism (Prop. 3).

Given a workload ``W``, a strategy ``A`` and a data vector ``x``, the
mechanism

1. answers the strategy queries with the Gaussian mechanism (noise calibrated
   to the strategy's L2 sensitivity);
2. infers an estimate ``x_hat`` of the data vector by least squares;
3. answers the workload as ``W x_hat``.

Because all workload answers are derived from the single estimate ``x_hat``,
they are mutually consistent, and ``x_hat`` itself can be released as a
synthetic contingency table tailored to the workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.error import expected_workload_error, per_query_error
from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.mechanisms.gaussian import GaussianMechanism
from repro.mechanisms.inference import nonnegative_least_squares_estimate
from repro.utils.rng import as_generator
from repro.utils.validation import check_vector

__all__ = ["MatrixMechanism", "MechanismResult"]


@dataclass
class MechanismResult:
    """Output of one matrix-mechanism invocation.

    Attributes
    ----------
    answers:
        Noisy, mutually consistent answers to the workload queries.
    estimate:
        The inferred data-vector estimate ``x_hat`` (the synthetic counts).
    strategy_answers:
        The raw noisy answers to the strategy queries.
    noise_scale:
        Standard deviation of the Gaussian noise added to each strategy query.
    """

    answers: np.ndarray
    estimate: np.ndarray
    strategy_answers: np.ndarray
    noise_scale: float


class MatrixMechanism:
    """Answer workloads through a strategy under (epsilon, delta)-differential privacy."""

    def __init__(
        self,
        strategy: Strategy,
        privacy: PrivacyParams = PrivacyParams(),
        *,
        nonnegative: bool = False,
    ):
        self.strategy = strategy
        self.privacy = privacy
        self.nonnegative = nonnegative
        self._gaussian = GaussianMechanism(privacy)

    def run(
        self,
        workload: Workload,
        data: np.ndarray,
        *,
        random_state=None,
    ) -> MechanismResult:
        """Run the mechanism once and return answers plus the synthetic estimate.

        Validation, the sensitivity, the least-squares factorisation and the
        support verdicts come from the strategy's prepared state, computed
        on its first answer, so a repeated run costs the noise draw, two
        matrix-vector products and the derivation.
        """
        prepared = self.strategy.prepared
        data = check_vector(data, "data", prepared.cells)
        prepared.require_support(workload)
        rng = as_generator(random_state)
        sigma = self.privacy.gaussian_scale(prepared.sensitivity_l2)
        noisy = self._gaussian.answer(prepared.matrix, data, random_state=rng, scale=sigma)
        if self.nonnegative:
            estimate = nonnegative_least_squares_estimate(prepared.matrix, noisy)
        else:
            estimate = prepared.solve(noisy)
        # answer() serves explicit matrices and factored row operators alike,
        # so large Kronecker workloads can be answered without materialising
        # their (possibly enormous) query matrix.
        answers = workload.answer(estimate)
        return MechanismResult(
            answers=answers,
            estimate=estimate,
            strategy_answers=noisy,
            noise_scale=sigma,
        )

    def answer(self, workload: Workload, data: np.ndarray, *, random_state=None) -> np.ndarray:
        """Convenience wrapper returning only the noisy workload answers."""
        return self.run(workload, data, random_state=random_state).answers

    # ----------------------------------------------------------- analysis API
    def expected_error(self, workload: Workload) -> float:
        """Expected RMSE of answering ``workload`` (Prop. 4 / Def. 5)."""
        return expected_workload_error(workload, self.strategy, self.privacy)

    def expected_query_errors(
        self, workload: Workload, *, block_size: int | None = None
    ) -> np.ndarray:
        """Expected RMSE of each individual workload query.

        Served in query blocks through the factored row operator when the
        workload is operator-backed, so diagnostics scale to millions of
        queries; ``block_size`` caps the per-block allocation (defaults to
        the materialization budget).
        """
        return per_query_error(
            workload, self.strategy, self.privacy, block_size=block_size
        )
