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

The cache is a :class:`~repro.utils.memo.BoundedMemo` (LRU, one mutex shared
by every session of a server, lock-free counter reads) plus two writers:
:meth:`PlanCache.put` (insert or refresh) and the boot-time :meth:`PlanCache.warm`.
"""

from __future__ import annotations

from repro.utils.memo import BoundedMemo

__all__ = ["PlanCache"]


class PlanCache(BoundedMemo):
    """LRU-bounded, content-addressed, thread-safe plan store.

    >>> cache = PlanCache(max_entries=2)
    >>> cache.put("a", "plan-a"); cache.put("a", "plan-a2")  # put refreshes
    >>> cache.get("a"), cache.stats
    ('plan-a2', {'entries': 1, 'hits': 1, 'misses': 0, 'evictions': 0, 'warmed': 0})
    """

    def __init__(self, max_entries: int = 64):
        super().__init__(max_entries)
        self.warmed = 0

    def warm(self, entries) -> int:
        """Bulk-load ``(key, plan)`` pairs from a
        :class:`~repro.engine.store.StateStore` at boot; returns how many loaded.

        Warming counts separately (``warmed``), so hits and misses describe
        live traffic only, and a present key is left alone (the live entry is
        at least as fresh).  Overflow evicts LRU as usual.
        """
        loaded = 0
        for key, plan in entries:
            if key not in self:
                self.setdefault(key, plan)
                loaded += 1
        with self._lock:
            self.warmed += loaded
        return loaded

    def put(self, key: str, plan) -> None:
        """Insert (or refresh) ``plan`` under ``key``, evicting LRU overflow."""
        self._admit(key, plan, replace=True)

    @property
    def stats(self) -> dict:
        """Lifetime counters: ``entries``, ``hits``, ``misses``, ``evictions``, ``warmed``."""
        return {**super().stats, "warmed": self.warmed}
