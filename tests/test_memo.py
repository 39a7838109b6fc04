"""The shared memo and single-flight primitives (:mod:`repro.utils.memo`).

Every content-addressed cache in the engine is a :class:`BoundedMemo` and
every duplicate-work gate a :class:`SingleFlight`, so these tests pin the
contract all of those sites rely on: LRU order and exact counters, the byte
budget, first-writer-wins under contention, and one execution per burst of
concurrent callers with the leader's exception shared.
"""

import sys
import threading

import numpy as np
import pytest

from repro.utils.memo import BoundedMemo, SingleFlight

THREADS = 8

pytestmark = pytest.mark.timeout(60)


def _run_threads(count, work):
    """Run ``work(index)`` on ``count`` threads released by one barrier,
    with a short switch interval so racing threads interleave often."""
    barrier = threading.Barrier(count)
    errors = []

    def runner(index):
        barrier.wait()
        try:
            work(index)
        except Exception as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


def _pair_bytes(pair):
    return pair[0].nbytes + pair[1].nbytes


def _pair(floats):
    return np.zeros(floats // 2), np.zeros(floats - floats // 2)


# ---------------------------------------------------------------- BoundedMemo
class TestBoundedMemo:
    def test_lru_order_and_counters(self):
        memo = BoundedMemo(2)
        memo.setdefault("a", 1)
        memo.setdefault("b", 2)
        assert memo.get("a") == 1  # "a" is now the most recently used
        memo.setdefault("c", 3)  # evicts "b"
        assert memo.get("b") is None
        assert memo.peek("a") == 1 and memo.peek("c") == 3
        assert memo.stats == {"entries": 2, "hits": 1, "misses": 1, "evictions": 1}
        # peek neither counts nor refreshes: "a" is still older than "c".
        memo.setdefault("d", 4)
        assert "a" not in memo and "c" in memo and "d" in memo
        assert memo.stats["evictions"] == 2

    def test_setdefault_keeps_the_stored_value(self):
        memo = BoundedMemo(4)
        assert memo.setdefault("k", "first") == "first"
        assert memo.setdefault("k", "second") == "first"
        assert memo.get("k") == "first" and len(memo) == 1

    def test_clear_keeps_lifetime_counters(self):
        memo = BoundedMemo(2)
        memo.setdefault("a", 1)
        memo.get("a")
        memo.get("x")
        memo.clear()
        assert len(memo) == 0 and not memo
        assert memo.stats == {"entries": 0, "hits": 1, "misses": 1, "evictions": 0}

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            BoundedMemo(0)
        with pytest.raises(ValueError):
            BoundedMemo(4, max_bytes=1024)  # a byte budget needs sizeof

    def test_oversized_value_is_never_stored(self):
        memo = BoundedMemo(8, max_bytes=64 * 8, sizeof=_pair_bytes)
        big = _pair(65)
        assert memo.setdefault("big", big) is big
        assert "big" not in memo and memo.bytes == 0
        assert memo.stats["evictions"] == 0

    def test_eviction_is_by_bytes(self):
        memo = BoundedMemo(8, max_bytes=64 * 8, sizeof=_pair_bytes)
        for key in "abc":
            memo.setdefault(key, _pair(20))  # 160 bytes each: 480 of 512
        assert len(memo) == 3 and memo.bytes == 480
        memo.get("a")  # "b" becomes the least recently used
        memo.setdefault("d", _pair(20))
        assert [key for key in "abcd" if key in memo] == ["a", "c", "d"]
        assert memo.bytes == 480 and memo.stats["evictions"] == 1
        memo.setdefault("e", _pair(60))  # 480 bytes: evicts all three others
        assert len(memo) == 1 and memo.bytes == 480
        assert memo.stats == {
            "entries": 1,
            "hits": 1,
            "misses": 0,
            "evictions": 4,
            "bytes": 480,
        }
        memo.clear()
        assert memo.bytes == 0 and memo.stats["bytes"] == 0

    def test_first_writer_wins_across_threads(self):
        memo = BoundedMemo(4)
        lookups = 200
        kept = [[] for _ in range(THREADS)]

        def work(index):
            for step in range(lookups):
                key = f"k{step % 4}"
                value = memo.get(key)
                if value is None:
                    value = memo.setdefault(key, (index, step))
                kept[index].append((key, value))

        _run_threads(THREADS, work)
        assert memo.hits + memo.misses == THREADS * lookups
        # Never evicted (4 keys, bound 4): every thread holds the one object
        # the first writer stored for each key.
        assert memo.stats["evictions"] == 0
        for key_values in kept:
            for key, value in key_values:
                assert value is memo.peek(key)


# --------------------------------------------------------------- SingleFlight
class TestSingleFlight:
    def _burst(self, flights, fn):
        """``THREADS`` concurrent ``do("k", fn)`` calls; their outcomes."""
        outcomes = [None] * THREADS

        def work(index):
            try:
                outcomes[index] = flights.do("k", fn)
            except RuntimeError as error:
                outcomes[index] = error

        _run_threads(THREADS, work)
        return outcomes

    @staticmethod
    def _held_until_followers(flights, result):
        """A leader body that waits for every other caller to join it."""
        calls = []

        def fn():
            calls.append(1)
            for _ in range(600):
                if flights.followers == THREADS - 1:
                    break
                threading.Event().wait(0.05)
            if isinstance(result, BaseException):
                raise result
            return result

        return fn, calls

    def test_concurrent_callers_share_one_execution(self):
        flights = SingleFlight()
        value = object()
        fn, calls = self._held_until_followers(flights, value)
        outcomes = self._burst(flights, fn)
        assert len(calls) == 1
        assert all(outcome is value for outcome in outcomes)
        assert flights.stats == {"leaders": 1, "followers": THREADS - 1}

    def test_followers_receive_the_leaders_exception(self):
        flights = SingleFlight()
        failure = RuntimeError("build failed")
        fn, calls = self._held_until_followers(flights, failure)
        outcomes = self._burst(flights, fn)
        assert len(calls) == 1
        assert all(outcome is failure for outcome in outcomes)

    def test_a_call_after_completion_runs_again(self):
        flights = SingleFlight()
        calls = []
        assert flights.do("k", lambda: calls.append(1) or "first") == "first"
        assert flights.do("k", lambda: calls.append(1) or "second") == "second"
        assert len(calls) == 2
        assert flights.stats == {"leaders": 2, "followers": 0}

        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            flights.do("k", boom)
        assert flights.do("k", lambda: "recovered") == "recovered"

    def test_distinct_keys_do_not_wait_on_each_other(self):
        flights = SingleFlight()
        entered = threading.Event()

        def slow():
            entered.set()
            assert release.wait(timeout=30)
            return "slow"

        release = threading.Event()
        thread = threading.Thread(target=lambda: flights.do("a", slow))
        thread.start()
        assert entered.wait(timeout=30)
        assert flights.do("b", lambda: "fast") == "fast"  # while "a" is in flight
        release.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert flights.stats == {"leaders": 2, "followers": 0}
