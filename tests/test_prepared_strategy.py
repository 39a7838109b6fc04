"""The prepared strategy: plan-invariant answering state, built once, keyed on content.

``Strategy.prepared`` holds the validated matrix, sensitivities, the
least-squares solver and the support memo that every answer through the
strategy shares.  These tests pin down what sharing must not change (the
noise scale, the estimate) and what it must fix: support verdicts keyed by
workload *content*, so a freed workload's recycled ``id()`` can never vouch
for one the strategy cannot answer.
"""

import pickle
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.fingerprint import strategy_fingerprint, workload_fingerprint
from repro.core.prepared import PreparedStrategy
from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.engine.mechanism import StrategyMechanism
from repro.exceptions import SingularStrategyError
from repro.mechanisms.gaussian import GaussianMechanism
from repro.mechanisms.laplace_matrix import LaplaceMatrixMechanism
from repro.mechanisms.matrix_mechanism import MatrixMechanism

GAUSSIAN = PrivacyParams(1.0, 1e-4)

MECHANISMS = {
    "gaussian": lambda strategy: MatrixMechanism(strategy, GAUSSIAN),
    "laplace": lambda strategy: LaplaceMatrixMechanism(strategy, 1.0),
}


@pytest.mark.parametrize("kind", sorted(MECHANISMS))
def test_a_freed_workload_cannot_vouch_for_an_unsupported_one(kind):
    """A support verdict never survives its workload under a recycled id.

    The strategy never measures cell 2, so ``[[0, 0, 1]]`` is unanswerable.
    Freeing a supported workload first makes CPython likely to hand its
    address to the next one — an identity-keyed memo then answered the
    unanswerable workload with the estimate 0 in most trials.
    """
    strategy = Strategy(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    mechanism = MECHANISMS[kind](strategy)
    data = np.array([3.0, 5.0, 11.0])
    refused = 0
    for trial in range(200):
        supported = Workload(np.array([[1.0, 1.0, 0.0]]))
        mechanism.run(supported, data, random_state=trial)
        del supported
        try:
            mechanism.run(Workload(np.array([[0.0, 0.0, 1.0]])), data, random_state=trial)
        except SingularStrategyError:
            refused += 1
    assert refused == 200


def test_support_verdicts_are_memoised_by_content_and_bounded(monkeypatch):
    strategy = Strategy(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    prepared = strategy.prepared
    calls = []
    real = Strategy.supports
    monkeypatch.setattr(
        Strategy, "supports", lambda self, gram, *a: calls.append(1) or real(self, gram, *a)
    )
    for _ in range(3):  # equal content, fresh objects: one row-space check
        prepared.require_support(Workload(np.array([[1.0, 2.0, 0.0]])))
    assert len(calls) == 1
    monkeypatch.setattr(prepared._supported, "max_entries", 4)
    for scale in range(10):
        prepared.require_support(Workload(np.array([[1.0, float(scale), 0.0]])))
    assert len(prepared._supported) == 4


def test_full_rank_strategies_never_run_the_row_space_check(monkeypatch):
    strategy = Strategy(np.tril(np.ones((6, 6))))
    monkeypatch.setattr(Strategy, "supports", lambda *args: pytest.fail("support check ran"))
    MatrixMechanism(strategy, GAUSSIAN).run(Workload(np.eye(6)), np.ones(6), random_state=0)


def test_one_prepared_state_serves_every_mechanism_instance():
    """The per-(epsilon, delta) instances of a plan share one factorisation."""
    strategy = Strategy(np.tril(np.ones((8, 8))))
    plan_mechanism = StrategyMechanism(strategy)
    workload = Workload(np.ones((1, 8)))
    for params in (GAUSSIAN, PrivacyParams(0.5, 1e-5), PrivacyParams(0.7, 0.0)):
        plan_mechanism.run(workload, np.ones(8), params, random_state=0)
    assert strategy._prepared is strategy.prepared


@pytest.mark.timeout(60)
def test_concurrent_first_answers_build_one_prepared_state(monkeypatch):
    """Threads racing the first answers through one plan share one build.

    A lost update would build twice (or hand out two states), so every
    answer would not be served by the single state the strategy keeps, and
    the bounded support memo would hold more than its share of shapes.
    """
    builds = []
    real_init = PreparedStrategy.__init__

    def counting_init(self, strategy):
        builds.append(1)
        time.sleep(0.01)  # hold the build open so racing threads arrive mid-build
        real_init(self, strategy)

    monkeypatch.setattr(PreparedStrategy, "__init__", counting_init)
    monkeypatch.setattr(PreparedStrategy, "SUPPORT_MEMO_ENTRIES", 3)
    strategy = Strategy(np.eye(8)[:6])  # rank-deficient: exercises the support memo
    plan_mechanism = StrategyMechanism(strategy)
    data = np.arange(8.0)
    workloads = [Workload(np.eye(8)[[index]]) for index in range(6)]
    errors, seen = [], []
    start = threading.Barrier(8)

    def worker(offset):
        try:
            start.wait()
            for step in range(40):
                workload = workloads[(offset + step) % len(workloads)]
                params = GAUSSIAN if step % 2 else PrivacyParams(0.5, 0.0)
                plan_mechanism.run(workload, data, params, random_state=step)
                seen.append(strategy.prepared)
        except Exception as error:  # surfaced below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(builds) == 1
    assert all(prepared is strategy.prepared for prepared in seen) and len(seen) == 320
    assert len(strategy.prepared._supported) <= 3


def test_pickles_leave_the_prepared_state_out():
    strategy = Strategy(np.tril(np.ones((16, 16))), name="prefix")
    cold = len(pickle.dumps(strategy))
    MatrixMechanism(strategy, GAUSSIAN).run(Workload(np.eye(16)), np.ones(16), random_state=0)
    assert strategy._prepared is not None
    clone = pickle.loads(pickle.dumps(strategy))
    assert clone._prepared is None
    # The pickle may carry the Gram cached by the first answer, never the
    # solver: the prepared state would add at least another n x n factor.
    assert len(pickle.dumps(strategy)) < cold + 16 * 16 * 8 + 512
    np.testing.assert_array_equal(
        MatrixMechanism(clone, GAUSSIAN).run(Workload(np.eye(16)), np.ones(16), random_state=3).answers,
        MatrixMechanism(strategy, GAUSSIAN).run(Workload(np.eye(16)), np.ones(16), random_state=3).answers,
    )


def test_noise_scale_is_the_direct_mechanisms_float():
    strategy = Strategy(np.random.default_rng(0).normal(size=(12, 6)))
    result = MatrixMechanism(strategy, GAUSSIAN).run(Workload(np.eye(6)), np.ones(6), random_state=0)
    assert result.noise_scale == GaussianMechanism(GAUSSIAN).noise_scale(strategy.matrix)
    laplace = LaplaceMatrixMechanism(strategy, 0.5)
    assert laplace.noise_scale == strategy.sensitivity_l1 / 0.5


def test_fingerprints_are_content_keys_memoised_on_the_object():
    a = Workload(np.tril(np.ones((4, 4))))
    b = Workload(np.tril(np.ones((4, 4))))
    assert workload_fingerprint(a) == workload_fingerprint(b)
    assert a._cached_fingerprint == workload_fingerprint(a)
    s = Strategy(np.eye(4), name="identity")
    assert strategy_fingerprint(s) == strategy_fingerprint(Strategy(np.eye(4), name="identity"))
    assert strategy_fingerprint(s) != strategy_fingerprint(Strategy(np.eye(4), name="other"))
    assert strategy_fingerprint(s) != strategy_fingerprint(Strategy(2 * np.eye(4), name="identity"))
