"""Plan-invariant state of an explicit strategy, built once per process.

The matrix mechanism fixes a strategy ``A``, measures it with noise, and
infers ``x_hat`` by least squares.  Everything about ``A`` that answering
needs — the validated matrix, its L2 and L1 column-norm sensitivities, a
least-squares solver, and which workloads it can answer — depends only on
``A``, so a :class:`PreparedStrategy` computes it once and every answer
through the strategy shares it: the Gaussian and Laplace mechanisms alike,
and every per-privacy-setting mechanism instance a cached plan creates.

The state is process-local.  :attr:`repro.core.strategy.Strategy.prepared`
builds it lazily and strategy pickles leave it out, so persisted plans and
worker payloads stay the size of the strategy itself; a worker or a
rebooted server rebuilds it on first use.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.core.fingerprint import workload_fingerprint
from repro.exceptions import SingularStrategyError, StrategyError
from repro.utils.memo import BoundedMemo
from repro.utils.validation import check_matrix

__all__ = ["PreparedStrategy"]


class PreparedStrategy:
    """The validated matrix, sensitivities, solver and support memo of one strategy.

    Attributes
    ----------
    matrix:
        The explicit strategy matrix, checked once for shape and finiteness.
    sensitivity_l2 / sensitivity_l1:
        Maximum L2 / L1 column norm of ``matrix`` — the Gaussian and Laplace
        noise calibrations, computed with the same expressions the direct
        mechanisms use, so the noise scale is the same float.
    rank:
        Numerical rank: ``n`` when ``A^T A`` admits a Cholesky factor,
        otherwise the number of singular values above ``lstsq``'s own cutoff
        ``eps * max(p, n) * s_max``.
    """

    #: Bound on memoised support verdicts.  The memo lives as long as the
    #: strategy (inside a cached plan) while workloads arrive without end,
    #: so it keeps the most recently used shapes only.
    SUPPORT_MEMO_ENTRIES = 64

    def __init__(self, strategy):
        self._strategy = strategy
        self.matrix = check_matrix(strategy.matrix, "strategy matrix")
        self.sensitivity_l2 = float(np.sqrt(np.max(np.sum(self.matrix**2, axis=0))))
        self.sensitivity_l1 = float(np.max(np.sum(np.abs(self.matrix), axis=0)))
        try:
            self._factor = scipy.linalg.cho_factor(strategy.gram, check_finite=False)
            self._pinv = None
            self.rank = self.matrix.shape[1]
        except scipy.linalg.LinAlgError:
            # Rank-deficient: the minimum-norm solution ``lstsq`` would
            # return, as one pseudo-inverse applied per answer.
            self._factor = None
            u, s, vt = np.linalg.svd(self.matrix, full_matrices=False)
            cutoff = np.finfo(float).eps * max(self.matrix.shape) * s.max(initial=0.0)
            keep = s > cutoff
            self.rank = int(keep.sum())
            self._pinv = (vt[keep].T / s[keep]) @ u[:, keep].T
        self._supported = BoundedMemo(self.SUPPORT_MEMO_ENTRIES)

    @property
    def cells(self) -> int:
        return self.matrix.shape[1]

    def require_support(self, workload) -> None:
        """Raise :class:`SingularStrategyError` unless ``workload`` is answerable.

        A full-rank strategy answers every workload over its cells.  For a
        rank-deficient one the row-space check runs once per workload
        *content*: verdicts are memoised under the workload's fingerprint.
        """
        if workload.column_count != self.cells:
            raise SingularStrategyError(
                f"workload has {workload.column_count} cells but the strategy has {self.cells}"
            )
        if self._factor is not None:
            return
        key = workload_fingerprint(workload)
        supported = None if key is None else self._supported.get(key)
        if supported is None:
            supported = self._strategy.supports(workload.gram)
            if key is not None:
                self._supported.setdefault(key, supported)
        if not supported:
            raise SingularStrategyError(
                "the strategy cannot answer this workload: its row space does not "
                "contain the workload's row space"
            )

    def solve(self, noisy: np.ndarray) -> np.ndarray:
        """The least-squares estimate ``x_hat = argmin ||A x - noisy||_2``.

        Two matrix-vector products and two triangular solves on the cached
        Cholesky factor of ``A^T A``, or one product with the cached
        pseudo-inverse when the strategy is rank-deficient.
        """
        if self._factor is not None:
            return scipy.linalg.cho_solve(
                self._factor, self.matrix.T @ noisy, check_finite=False
            )
        if self.rank == 0:
            raise StrategyError("the strategy matrix is identically zero")
        return self._pinv @ noisy
