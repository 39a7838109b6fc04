"""Calibration and exactness tier: measured error matches the paper's formula.

The noise path of the matrix mechanisms — sensitivity, noise draw, and
least-squares inference through the strategy's prepared state — is checked
against the closed forms it must realise:

* **calibration** — over seeded runs, the empirical mean squared error of
  the workload answers matches ``expected_workload_error`` (Gaussian) or
  ``expected_workload_error_l1`` (Laplace) squared, within a chi-square
  bound, for a full-rank eigen design, a rank-deficient strategy, the
  workload as its own strategy and the identity — every strategy the
  planner ranks;
* **bit-identical noise** — the noisy strategy answers are exactly what the
  Gaussian mechanism draws on the strategy matrix under the same seed;
* **inference accuracy** — the rank-deficient estimate is ``lstsq``'s;
* **refusals** — an all-zero or non-finite strategy is still refused.

The bound.  One run's total squared error is the quadratic form
``z^T M z`` of the i.i.d. noise ``z`` with ``M = (W A^+)^T (W A^+)``, whose
mean is ``m * expected_error^2`` and whose variance follows from the noise's
fourth moment.  The sum over runs is matched in its first two moments to a
scaled chi-square (Satterthwaite), and the test accepts anything inside its
central ``1 - 1e-6`` interval, so it fails on a miscalibrated noise scale,
not on an unlucky seed.
"""

import numpy as np
import pytest
import scipy.stats

from repro.core.eigen_design import eigen_design
from repro.core.error import expected_workload_error
from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.exceptions import StrategyError
from repro.mechanisms.gaussian import GaussianMechanism
from repro.mechanisms.laplace_matrix import LaplaceMatrixMechanism, expected_workload_error_l1
from repro.mechanisms.matrix_mechanism import MatrixMechanism
from repro.workloads import all_range_queries_1d

CELLS = 16
RUNS = 600
GAUSSIAN = PrivacyParams(0.5, 1e-4)
LAPLACE = PrivacyParams(0.5, 0.0)
#: Two-sided probability of a false alarm per case.
FALSE_ALARM = 1e-6


def _ranges(spans) -> Workload:
    rows = np.zeros((len(spans), CELLS))
    for row, (start, stop) in zip(rows, spans):
        row[start:stop] = 1.0
    return Workload(rows)


def _cases():
    ranges = all_range_queries_1d(CELLS)
    low_rank = _ranges([(0, 8), (8, 16), (0, 16), (4, 12), (2, 6)])
    return {
        "eigen-design": (ranges, eigen_design(ranges).strategy),
        "rank-deficient": (low_rank, eigen_design(low_rank, complete=False).strategy),
        "identity": (ranges, Strategy.identity(CELLS)),
        "workload-as-strategy": (ranges, Strategy(ranges.matrix)),
    }


CASES = _cases()


@pytest.mark.parametrize("regime", ["gaussian", "laplace"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_empirical_error_matches_the_expected_error(case, regime):
    workload, strategy = CASES[case]
    if case == "rank-deficient":
        assert not strategy.is_full_rank
    else:
        assert strategy.is_full_rank
    data = np.random.default_rng(1).integers(0, 50, size=CELLS).astype(float)
    truth = workload.matrix @ data
    if regime == "gaussian":
        mechanism = MatrixMechanism(strategy, GAUSSIAN)
        expected = expected_workload_error(workload, strategy, GAUSSIAN)
    else:
        mechanism = LaplaceMatrixMechanism(strategy, LAPLACE)
        expected = expected_workload_error_l1(workload, strategy, LAPLACE)
    rng = np.random.default_rng(2024)
    total = 0.0
    scale = None
    for _ in range(RUNS):
        result = mechanism.run(workload, data, random_state=rng)
        total += float(np.sum((result.answers - truth) ** 2))
        scale = result.noise_scale
    # Moments of one run's squared error z^T M z.
    propagate = workload.matrix @ np.linalg.pinv(strategy.matrix)
    quadratic = propagate.T @ propagate
    if regime == "gaussian":
        variance, excess = scale**2, 0.0  # fourth moment 3 sigma^4
    else:
        variance, excess = 2.0 * scale**2, 12.0 * scale**4  # Laplace(b): 24 b^4 - 3 (2 b^2)^2
    mean = variance * np.trace(quadratic)
    spread = 2.0 * variance**2 * np.sum(quadratic**2) + excess * np.sum(np.diag(quadratic) ** 2)
    # The formula under test predicts exactly this mean.
    assert mean == pytest.approx(workload.query_count * expected**2, rel=1e-6)
    # Satterthwaite: total ~ c * chi2(k) with matched mean and variance.
    c = spread / (2.0 * mean)
    k = RUNS * 2.0 * mean**2 / spread
    low, high = scipy.stats.chi2.ppf([FALSE_ALARM / 2, 1 - FALSE_ALARM / 2], k)
    assert c * low <= total <= c * high, (
        f"{case}/{regime}: empirical MSE {total / RUNS / workload.query_count:.4f}, "
        f"expected {expected**2:.4f}"
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_noisy_strategy_answers_are_the_gaussian_mechanisms_bits(case):
    workload, strategy = CASES[case]
    data = np.arange(CELLS, dtype=float)
    mechanism = MatrixMechanism(strategy, GAUSSIAN)
    direct = GaussianMechanism(GAUSSIAN).answer(strategy.matrix, data, random_state=11)
    for _ in range(2):  # the first run builds the prepared state, the second reuses it
        result = mechanism.run(workload, data, random_state=11)
        assert np.array_equal(result.strategy_answers, direct)
        assert result.noise_scale == GaussianMechanism(GAUSSIAN).noise_scale(strategy.matrix)


@pytest.mark.parametrize("regime", ["gaussian", "laplace"])
def test_rank_deficient_estimate_is_the_least_squares_solution(regime):
    workload, strategy = CASES["rank-deficient"]
    data = np.random.default_rng(3).integers(0, 50, size=CELLS).astype(float)
    if regime == "gaussian":
        mechanism = MatrixMechanism(strategy, GAUSSIAN)
    else:
        mechanism = LaplaceMatrixMechanism(strategy, LAPLACE)
    for seed in range(5):
        result = mechanism.run(workload, data, random_state=seed)
        reference = np.linalg.lstsq(strategy.matrix, result.strategy_answers, rcond=None)[0]
        error = np.linalg.norm(result.estimate - reference)
        assert error <= 1e-9 * np.linalg.norm(reference)


@pytest.mark.parametrize(
    "make",
    [lambda s: MatrixMechanism(s, GAUSSIAN), lambda s: LaplaceMatrixMechanism(s, LAPLACE)],
    ids=["gaussian", "laplace"],
)
def test_zero_and_non_finite_strategies_are_refused(make):
    zero = Strategy(np.zeros((3, CELLS)))
    with pytest.raises(StrategyError):
        make(zero).run(Workload(np.ones((1, CELLS))), np.ones(CELLS), random_state=0)
    with pytest.raises(StrategyError):
        make(Strategy(np.zeros((3, CELLS)))).run(
            Workload(np.zeros((1, CELLS))), np.ones(CELLS), random_state=0
        )
    with pytest.raises(ValueError, match="non-finite"):
        Strategy(np.full((2, CELLS), np.nan))
    # A matrix that turns non-finite after construction is caught when the
    # prepared state validates it, before any noise is drawn.
    poisoned = Strategy(np.eye(CELLS))
    poisoned.matrix[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        make(poisoned).run(Workload(np.eye(CELLS)), np.ones(CELLS), random_state=0)
