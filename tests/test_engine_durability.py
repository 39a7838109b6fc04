"""Durability tests: the crash-safe state tier and its recovery invariants.

What the durable state tier (``docs/architecture.md`` §8) must hold:

* **the budget ledger never double-spends and never under-counts across a
  crash** — a ``PENDING`` row is durable *before* the noise draw, so for
  every fault point on the charge→execute→persist path (including a real
  ``SIGKILL`` of a real subprocess, and a kill mid-WAL-commit) the restarted
  accountant's recovered spend is conservative: at least the budget whose
  noise was actually released, at most one stranded reservation more;
* **paid requests fail closed** when the store is unreachable — refused with
  nothing debited — while **free reuse degrades** to in-memory-only;
* **restarts are warm** — persisted plans reboot the cache so a previously
  planned shape never reruns strategy optimization (spied on
  ``eigen_design``), and persisted releases keep serving free answers;
* **two processes can share one ledger file** — WAL plus the busy-retry
  loop keep concurrent charges serializable, with no row lost or doubled.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.engine import PlanCache, Planner, Server, Session, StateStore
from repro.engine import faults
from repro.engine.store import PENDING, SPENT, VOIDED
from repro.exceptions import StoreError, StoreUnavailableError
from repro.mechanisms.accountant import BudgetExceededError, PrivacyAccountant

PRIVACY = PrivacyParams(epsilon=1.0, delta=1e-4)
CELLS = 16

pytestmark = pytest.mark.timeout(120)


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "state.db")


@pytest.fixture(autouse=True)
def disarm_faults():
    yield
    faults.clear()


def paid_session(store, tenant="alice"):
    return Session(
        PRIVACY, data=np.full(CELLS, 2.0), store=store, tenant=tenant, random_state=7
    )


# --------------------------------------------------------------- store unit
class TestStateStore:
    def test_ledger_write_ahead_lifecycle(self, store_path):
        with StateStore(store_path) as store:
            entry = store.ledger_begin("t", PrivacyParams(0.4, 1e-5), label="q")
            assert store.ledger_counts("t") == {PENDING: 1}
            # PENDING already counts as spent: the write-ahead guarantee.
            assert store.ledger_spent("t") == (0.4, 1e-5)
            store.ledger_settle(entry, SPENT)
            assert store.ledger_counts("t") == {SPENT: 1}
            assert store.ledger_spent("t") == (0.4, 1e-5)

    def test_voided_rows_do_not_count(self, store_path):
        with StateStore(store_path) as store:
            entry = store.ledger_begin("t", PrivacyParams(0.4, 0.0))
            store.ledger_settle(entry, VOIDED)
            assert store.ledger_spent("t") == (0.0, 0.0)
            assert store.ledger_counts("t") == {VOIDED: 1}

    def test_settle_is_pending_only(self, store_path):
        """A settled row is immutable — a late refund cannot unspend it."""
        with StateStore(store_path) as store:
            entry = store.ledger_begin("t", PrivacyParams(0.4, 0.0))
            store.ledger_settle(entry, SPENT)
            store.ledger_settle(entry, VOIDED)  # lost the race: no-op
            assert store.ledger_counts("t") == {SPENT: 1}
            with pytest.raises(StoreError):
                store.ledger_settle(entry, PENDING)

    def test_tenants_are_isolated(self, store_path):
        with StateStore(store_path) as store:
            store.ledger_begin("a", PrivacyParams(0.3, 0.0), label="x")
            store.ledger_begin("b", PrivacyParams(0.5, 0.0), label="y")
            assert store.ledger_spent("a") == (0.3, 0.0)
            assert store.ledger_spent("b") == (0.5, 0.0)
            assert store.ledger_by_label("a") == {
                "x": {"epsilon": 0.3, "delta": 0.0, "count": 1}
            }

    def test_ledger_fails_closed_after_close(self, store_path):
        store = StateStore(store_path)
        store.close()
        assert not store.available
        with pytest.raises(StoreUnavailableError):
            store.ledger_begin("t", PrivacyParams(0.1, 0.0))
        with pytest.raises(StoreUnavailableError):
            store.ledger_spent("t")

    def test_plan_and_release_roundtrip(self, store_path):
        with StateStore(store_path) as store:
            assert store.save_plan("key", {"plan": 1})
            assert store.load_plan("key") == {"plan": 1}
            assert store.load_plans() == [("key", {"plan": 1})]
            assert store.save_release(
                "t", "q", PrivacyParams(0.2, 0.0), "strategy", np.arange(3.0)
            )
            [release] = store.load_releases("t")
            assert release["label"] == "q"
            assert release["params"] == PrivacyParams(0.2, 0.0)
            np.testing.assert_array_equal(release["estimate"], np.arange(3.0))

    def test_persistence_is_best_effort(self, store_path):
        """Warmth writes degrade (counted), they never raise — even closed."""
        store = StateStore(store_path)
        unpicklable = lambda: None  # noqa: E731 - locals don't pickle
        assert not store.save_plan("key", unpicklable)
        store.close()
        assert not store.save_plan("key", {"plan": 1})
        assert not store.save_release("t", "", PrivacyParams(0.1, 0.0), None, None)
        assert store.load_plans() == []
        assert store.load_releases("t") == []
        assert store.persist_failures == 3
        assert store.load_failures == 2

    def test_old_format_release_rows_still_load(self, store_path):
        """Rows that inline the pickled ``(strategy, estimate)`` pair load as before."""
        strategy = Strategy.identity(3)
        with StateStore(store_path) as store:
            store._conn.execute(
                "INSERT INTO releases (tenant, label, epsilon, delta, payload, created)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                ("t", "old", 0.2, 1e-5, pickle.dumps((strategy, np.arange(3.0))), "then"),
            )
            assert store.save_release("t", "new", PrivacyParams(0.3, 1e-5), strategy, np.ones(3))
            old, new = store.load_releases("t")
        assert (old["label"], old["params"]) == ("old", PrivacyParams(0.2, 1e-5))
        np.testing.assert_array_equal(old["strategy"].matrix, np.eye(3))
        np.testing.assert_array_equal(old["estimate"], np.arange(3.0))
        np.testing.assert_array_equal(new["strategy"].matrix, np.eye(3))
        np.testing.assert_array_equal(new["estimate"], np.ones(3))

    def test_releases_of_one_strategy_store_it_once(self, store_path):
        strategy = Strategy(np.tril(np.ones((8, 8))), name="prefix")
        with StateStore(store_path) as store:
            for index in range(5):
                assert store.save_release(
                    "t", f"q{index}", PrivacyParams(0.1, 1e-6), strategy, np.full(8, float(index))
                )
            assert (store.strategy_count(), store.release_count("t")) == (1, 5)
            assert store.stats()["strategies"] == 1
            loaded = store.load_releases("t")
        assert [entry["label"] for entry in loaded] == [f"q{index}" for index in range(5)]
        assert all(entry["strategy"] is loaded[0]["strategy"] for entry in loaded)
        np.testing.assert_array_equal(loaded[0]["strategy"].matrix, strategy.matrix)
        np.testing.assert_array_equal(loaded[4]["estimate"], np.full(8, 4.0))

    def test_unpicklable_strategy_is_counted_and_never_fails_the_answer(self, store_path):
        store = StateStore(store_path)
        planner = Planner()
        workload = np.eye(CELLS)[:4]
        plan = planner.plan(Workload(workload), PRIVACY)
        plan.mechanism.strategy.hook = lambda: None  # locals don't pickle
        session = Session(
            PRIVACY, data=np.full(CELLS, 2.0), store=store, tenant="alice",
            planner=planner, random_state=7,
        )
        answer = session.ask(workload, epsilon=0.5)
        assert answer.spent is not None and answer.plan is plan
        assert store.persist_failures == 1
        # Neither the release nor its strategy is written: no dangling key.
        assert (store.release_count(), store.strategy_count()) == (0, 0)
        assert store.ledger_counts("alice") == {SPENT: 1}
        store.close()

    def test_corrupt_rows_are_skipped(self, store_path):
        with StateStore(store_path) as store:
            store.save_plan("good", {"plan": 1})
            store._conn.execute(
                "INSERT INTO plans (key, payload, created) VALUES ('bad', X'00', 'now')"
            )
            assert store.load_plans() == [("good", {"plan": 1})]
            assert store.load_failures == 1

    def test_stats_snapshot(self, store_path):
        with StateStore(store_path) as store:
            store.ledger_begin("t", PrivacyParams(0.1, 0.0))
            store.save_plan("key", {"plan": 1})
            stats = store.stats()
            assert stats["available"] and stats["ledger_rows"] == 1
            assert stats["plans"] == 1 and stats["persist_failures"] == 0


# ------------------------------------------------------- durable accountant
class TestDurableAccountant:
    def test_charge_writes_ahead_and_commit_promotes(self, store_path):
        with StateStore(store_path) as store:
            accountant = PrivacyAccountant(PRIVACY)
            accountant.bind_ledger(store, "t")
            request = PrivacyParams(0.25, 1e-5)
            accountant.charge(request, label="q")
            assert store.ledger_counts("t") == {PENDING: 1}
            accountant.commit(request, label="q")
            assert store.ledger_counts("t") == {SPENT: 1}
            assert accountant.spent_epsilon == pytest.approx(0.25)

    def test_refund_voids_the_row(self, store_path):
        with StateStore(store_path) as store:
            accountant = PrivacyAccountant(PRIVACY)
            accountant.bind_ledger(store, "t")
            request = PrivacyParams(0.25, 0.0)
            accountant.charge(request, label="q")
            accountant.refund(request, label="q")
            assert store.ledger_counts("t") == {VOIDED: 1}
            assert accountant.spent_epsilon == pytest.approx(0.0)

    def test_recovery_resumes_durable_spend(self, store_path):
        with StateStore(store_path) as store:
            first = PrivacyAccountant(PRIVACY)
            first.bind_ledger(store, "t")
            first.charge(PrivacyParams(0.7, 0.0), label="q")
            first.commit(PrivacyParams(0.7, 0.0), label="q")
        with StateStore(store_path) as store:
            rebooted = PrivacyAccountant(PRIVACY)
            recovered = rebooted.bind_ledger(store, "t")
            assert recovered == (0.7, 0.0)
            assert rebooted.spent_epsilon == pytest.approx(0.7)
            # 0.7 is durably gone: a 0.4 request must be refused.
            with pytest.raises(BudgetExceededError):
                rebooted.charge(PrivacyParams(0.4, 0.0))

    def test_pending_rows_count_as_spent_on_recovery(self, store_path):
        """The conservative rule: an unresolved reservation may have drawn
        noise, so recovery must assume it did."""
        with StateStore(store_path) as store:
            store.ledger_begin("t", PrivacyParams(0.6, 0.0), label="crashed")
        with StateStore(store_path) as store:
            rebooted = PrivacyAccountant(PRIVACY)
            assert rebooted.bind_ledger(store, "t") == (0.6, 0.0)
            with pytest.raises(BudgetExceededError):
                rebooted.charge(PrivacyParams(0.5, 0.0))

    def test_unreachable_ledger_fails_closed(self, store_path):
        store = StateStore(store_path)
        accountant = PrivacyAccountant(PRIVACY)
        accountant.bind_ledger(store, "t")
        store.close()
        with pytest.raises(StoreUnavailableError):
            accountant.charge(PrivacyParams(0.1, 0.0))
        # Fail closed means *nothing* was debited in memory either.
        assert accountant.spent_epsilon == 0.0
        assert accountant.history == []


# --------------------------------------------------------- durable sessions
class TestDurableSession:
    def test_spend_and_releases_survive_a_restart(self, store_path):
        with StateStore(store_path) as store:
            session = paid_session(store)
            session.ask(np.ones((1, CELLS)), epsilon=0.6)
            assert store.ledger_counts("alice") == {SPENT: 1}
        with StateStore(store_path) as store:
            rebooted = paid_session(store)
            assert rebooted.accountant.spent_epsilon == pytest.approx(0.6)
            assert rebooted.releases == 1
            free = rebooted.ask(np.ones((1, CELLS)))
            assert free.served_from_release and free.spent is None

    def test_injected_failure_refunds_and_voids(self, store_path):
        for point in (faults.AFTER_CHARGE, faults.AFTER_EXECUTE):
            with StateStore(store_path) as store:
                session = paid_session(store, tenant=point)
                with faults.failing(point):
                    with pytest.raises(faults.FaultInjected):
                        session.ask(np.ones((1, CELLS)), epsilon=0.5)
                assert session.accountant.spent_epsilon == pytest.approx(0.0)
                assert store.ledger_counts(point) == {VOIDED: 1}
                # The session stays usable: the same request now succeeds.
                answer = session.ask(np.ones((1, CELLS)), epsilon=0.5)
                assert answer.spent is not None
                assert store.ledger_counts(point) == {VOIDED: 1, SPENT: 1}

    def test_unreachable_store_fails_paid_closed_keeps_free_open(self, store_path):
        store = StateStore(store_path)
        session = paid_session(store)
        session.ask(np.ones((1, CELLS)), epsilon=0.5)
        store.close()
        # Paid requests against a dead store are refused, nothing debited...
        with pytest.raises(StoreUnavailableError):
            session.ask(np.ones((2, CELLS)) * 3.0, epsilon=0.2, data=np.ones(CELLS))
        assert session.accountant.spent_epsilon == pytest.approx(0.5)
        # ...while free reuse keeps serving from in-memory releases.
        free = session.ask(np.ones((1, CELLS)))
        assert free.served_from_release

    def test_failed_release_persist_does_not_fail_the_answer(self, store_path):
        store = StateStore(store_path)
        session = paid_session(store)
        # Sever warmth persistence only: the ledger stays reachable.
        store.save_release = lambda *args, **kwargs: False
        answer = session.ask(np.ones((1, CELLS)), epsilon=0.5)
        assert answer.spent is not None
        assert store.ledger_counts("alice") == {SPENT: 1}
        store.close()


# ------------------------------------------------------------- warm reboots
class TestWarmReboot:
    def test_restart_skips_strategy_optimization(self, store_path, monkeypatch):
        import repro.engine.planner as planner_module

        calls = {"count": 0}
        real = planner_module.eigen_design

        def spied(workload, **options):
            calls["count"] += 1
            return real(workload, **options)

        monkeypatch.setattr(planner_module, "eigen_design", spied)
        workload = np.eye(CELLS)[:4]
        with Server(
            PRIVACY, data=np.full(CELLS, 2.0), workers=2, store=store_path
        ) as server:
            server.ask("alice", workload, epsilon=0.3)
        cold_calls = calls["count"]
        assert cold_calls >= 1
        rebooted = Server(
            PRIVACY,
            data=np.full(CELLS, 2.0),
            workers=2,
            store=store_path,
            planner=Planner(cache=PlanCache()),
        )
        with rebooted as server:
            assert server.stats()["store"]["plans_warmed"] >= 1
            answer = server.ask("bob", workload, epsilon=0.3)
            assert answer.plan_cache_hit
            assert server.planner.plans_built == 0
        # The warm reboot never re-entered strategy optimization.
        assert calls["count"] == cold_calls

    def test_server_stats_surface_the_store(self, store_path):
        with Server(
            PRIVACY, data=np.full(CELLS, 2.0), workers=2, store=store_path
        ) as server:
            server.ask("alice", np.ones((1, CELLS)), epsilon=0.4)
            stats = server.stats()
            assert stats["store"]["available"]
            assert stats["store"]["ledger_rows"] == 1
            by_label = stats["spent"]["alice"]["by_label"]
            assert by_label["adhoc"]["count"] == 1
            assert by_label["adhoc"]["epsilon"] == pytest.approx(0.4)

    def test_plan_cache_warm_is_idempotent_and_counted(self):
        cache = PlanCache(max_entries=4)
        cache.put("live", "live-plan")
        loaded = cache.warm([("live", "stale-plan"), ("cold", "cold-plan")])
        assert loaded == 1
        assert cache.peek("live") == "live-plan"  # live entry wins
        assert cache.peek("cold") == "cold-plan"
        assert cache.stats["warmed"] == 1
        assert cache.stats["hits"] == 0 and cache.stats["misses"] == 0


# -------------------------------------------------------- real crash matrix
#: One paid request against a durable session; the REPRO_FAULT_KILL point in
#: the environment SIGKILLs the process somewhere along the paid path.
DRIVER = textwrap.dedent(
    """
    import sys
    import numpy as np
    from repro.core.privacy import PrivacyParams
    from repro.engine import Session, StateStore

    store = StateStore(sys.argv[1])
    session = Session(
        PrivacyParams(1.0, 1e-4),
        data=np.full({cells}, 2.0),
        store=store,
        tenant="alice",
        random_state=7,
    )
    session.ask(np.ones((1, {cells})), epsilon=0.5)
    print("SURVIVED")
    """
).format(cells=CELLS)

#: fault point -> (ledger states after recovery, recovered epsilon).
#: Everywhere the answer could have been released, the spend must survive;
#: a kill mid-transaction must roll back (no noise existed yet).
CRASH_MATRIX = {
    faults.LEDGER_MID_COMMIT: ({}, 0.0),
    faults.AFTER_CHARGE: ({PENDING: 1}, 0.5),
    faults.AFTER_EXECUTE: ({PENDING: 1}, 0.5),
    faults.AFTER_COMMIT: ({SPENT: 1}, 0.5),
    faults.AFTER_PERSIST: ({SPENT: 1}, 0.5),
}


def run_driver(store_path, kill_at=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    if kill_at is not None:
        env[faults.FAULT_ENV] = kill_at
    else:
        env.pop(faults.FAULT_ENV, None)
    return subprocess.run(
        [sys.executable, "-c", DRIVER, store_path],
        env=env,
        capture_output=True,
        text=True,
        timeout=90,
    )


class TestCrashMatrix:
    @pytest.mark.parametrize("point", list(CRASH_MATRIX))
    def test_sigkill_at_every_fault_point(self, store_path, point):
        completed = run_driver(store_path, kill_at=point)
        assert completed.returncode == -signal.SIGKILL, completed.stderr
        assert "SURVIVED" not in completed.stdout
        expected_states, expected_epsilon = CRASH_MATRIX[point]
        with StateStore(store_path) as store:
            assert store.ledger_counts("alice") == expected_states
            epsilon, _ = store.ledger_spent("alice")
            assert epsilon == pytest.approx(expected_epsilon)
            # Recovery through a real session agrees with the raw ledger.
            rebooted = paid_session(store)
            assert rebooted.accountant.spent_epsilon == pytest.approx(
                expected_epsilon
            )

    def test_crash_then_restart_never_double_spends(self, store_path):
        """Crash after the noise draw, then run the same request to
        completion: exactly one extra spend lands — the stranded PENDING
        reservation stays, the budget is never charged twice for one row."""
        crashed = run_driver(store_path, kill_at=faults.AFTER_EXECUTE)
        assert crashed.returncode == -signal.SIGKILL
        completed = run_driver(store_path)
        assert completed.returncode == 0, completed.stderr
        assert "SURVIVED" in completed.stdout
        with StateStore(store_path) as store:
            assert store.ledger_counts("alice") == {PENDING: 1, SPENT: 1}
            epsilon, _ = store.ledger_spent("alice")
            assert epsilon == pytest.approx(1.0)
            # The budget is now exhausted: a third run must be refused.
            rebooted = paid_session(store)
            assert rebooted.remaining is None


# ------------------------------------------------- two-process ledger file
CONTENDER = textwrap.dedent(
    """
    import sys
    from repro.core.privacy import PrivacyParams
    from repro.engine import StateStore
    from repro.engine.store import SPENT

    store = StateStore(sys.argv[1], retry_attempts=8, retry_base_seconds=0.005)
    for index in range(int(sys.argv[3])):
        entry = store.ledger_begin(sys.argv[2], PrivacyParams(0.01, 0.0), "c")
        store.ledger_settle(entry, SPENT)
    store.close()
    print("DONE")
    """
)


class TestCrossProcessContention:
    def test_two_processes_share_one_ledger(self, store_path):
        rounds = 20
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", CONTENDER, store_path, tenant, str(rounds)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for tenant in ("left", "right")
        ]
        for worker in workers:
            stdout, stderr = worker.communicate(timeout=90)
            assert worker.returncode == 0, stderr
            assert "DONE" in stdout
        with StateStore(store_path) as store:
            # Every charge of both processes landed exactly once, all SPENT.
            for tenant in ("left", "right"):
                assert store.ledger_counts(tenant) == {SPENT: rounds}
                epsilon, _ = store.ledger_spent(tenant)
                assert epsilon == pytest.approx(0.01 * rounds)
