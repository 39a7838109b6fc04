"""A content-addressed, bounded, thread-safe cache of executable plans.

Repeated workload *shapes* dominate real query traffic — the same dashboard
marginals, the same range scans over fresh data.  The expensive part of
answering them is strategy optimization, not the mechanism run, so the engine
memoises whole :class:`~repro.engine.planner.Plan` objects keyed by workload
*content* (see :func:`~repro.core.fingerprint.workload_fingerprint` — the same
keying discipline as the factor-``eigh`` memo in :mod:`repro.utils.operators`).

A warm hit skips strategy optimization entirely, and it composes with the
lower layers' memoisation: the cached plan's strategy carries its spectral
caches, and repeated error evaluations of it reuse their Krylov state
(``docs/performance.md``), so a warm re-answer does near-zero optimization
*and* near-zero PCG work.

Entries are evicted least-recently-used against an entry bound; the cache is
deliberately tiny state (plans hold strategies, which can be large) and all
bookkeeping — hits, misses, evictions — is exposed for tests and benchmarks.

The cache is shared by every session of a :class:`~repro.engine.server.Server`,
so all structural mutation — ``get`` (it reorders the LRU list), ``put``,
eviction, ``clear`` — happens under one mutex.  Counter *reads* (``stats``,
``hits``...) are deliberately lock-free: they read int attributes that are
only ever replaced atomically, so monitoring never contends with serving.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["PlanCache"]


class PlanCache:
    """LRU-bounded, content-addressed, thread-safe plan store.

    Examples
    --------
    >>> cache = PlanCache(max_entries=2)
    >>> cache.put("a", "plan-a"); cache.put("b", "plan-b")
    >>> cache.get("a")
    'plan-a'
    >>> cache.put("c", "plan-c")  # evicts "b" (least recently used)
    >>> cache.get("b") is None
    True
    >>> cache.stats["hits"], cache.stats["misses"], cache.stats["evictions"]
    (1, 1, 1)
    """

    def __init__(self, max_entries: int = 64):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.warmed = 0

    def warm(self, entries) -> int:
        """Bulk-load ``(key, plan)`` pairs — the boot-time path from a
        :class:`~repro.engine.store.StateStore`.

        Unlike :meth:`put`, warming counts separately (``warmed``) so hit /
        miss accounting still describes live traffic only, and a key that is
        already present is left alone (the live entry is at least as fresh).
        Overflow beyond ``max_entries`` evicts LRU as usual.  Returns the
        number of entries actually loaded.
        """
        loaded = 0
        with self._lock:
            for key, plan in entries:
                if key in self._entries:
                    continue
                self._entries[key] = plan
                self._entries.move_to_end(key)
                loaded += 1
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1
            self.warmed += loaded
        return loaded

    def get(self, key: str):
        """The cached plan for ``key``, or ``None`` (recorded as a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def peek(self, key: str):
        """Like :meth:`get` but without touching stats or the LRU order.

        Used by the planner's double-checked build gate (and by callers that
        only want to know whether a shape is already warm): every logical
        *lookup* stays a single counted ``get``, so ``hits + misses`` equals
        the number of lookups even when a build races.
        """
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, plan) -> None:
        """Insert (or refresh) ``plan`` under ``key``, evicting LRU overflow."""
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept; they describe the lifetime)."""
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> dict:
        """Lifetime counters: ``entries``, ``hits``, ``misses``, ``evictions``, ``warmed``.

        Read lock-free (each counter is a single atomic attribute read), so
        monitoring a busy server never blocks the serving path; the snapshot
        may straddle an in-flight lookup but each individual counter is
        exact.
        """
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "warmed": self.warmed,
        }
