"""The Gaussian mechanism (Prop. 2)."""

from __future__ import annotations

import numpy as np

from repro.core.privacy import PrivacyParams
from repro.core.workload import Workload
from repro.utils.rng import as_generator
from repro.utils.validation import check_matrix, check_vector

__all__ = ["GaussianMechanism"]


class GaussianMechanism:
    """Answer a set of queries by adding independent Gaussian noise.

    The noise scale is calibrated to the L2 sensitivity of the query matrix
    and the (epsilon, delta) privacy budget:
    ``sigma = ||W||_2 * sqrt(2 ln(2/delta)) / epsilon``.
    """

    def __init__(self, privacy: PrivacyParams):
        if not privacy.is_approximate:
            raise ValueError("the Gaussian mechanism requires delta > 0")
        self.privacy = privacy

    def noise_scale(self, queries: Workload | np.ndarray) -> float:
        """Return the standard deviation of the noise added to each answer."""
        sensitivity = (
            queries.sensitivity_l2
            if isinstance(queries, Workload)
            else float(np.sqrt(np.max(np.sum(np.asarray(queries, float) ** 2, axis=0))))
        )
        return self.privacy.gaussian_scale(sensitivity)

    def answer(
        self,
        queries: Workload | np.ndarray,
        data: np.ndarray,
        *,
        random_state=None,
        scale: float | None = None,
    ) -> np.ndarray:
        """Return (epsilon, delta)-differentially-private answers to ``queries``.

        ``queries`` may be a :class:`Workload` (explicit) or a raw matrix.
        A caller that already holds a validated matrix and its noise scale
        (a prepared strategy) passes ``scale`` to skip re-validating the
        matrix and recomputing its sensitivity; the draw is the same.
        """
        if scale is None:
            matrix = queries.matrix if isinstance(queries, Workload) else check_matrix(queries, "queries")
            scale = self.noise_scale(queries)
        else:
            matrix = queries
        data = check_vector(data, "data", matrix.shape[1])
        rng = as_generator(random_state)
        noise = rng.normal(0.0, scale, size=matrix.shape[0])
        return matrix @ data + noise
