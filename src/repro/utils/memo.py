"""The engine's content-addressed memo and its duplicate-work gate.

Both primitives keep their structure under one internal mutex, run the
caller's work outside it, and keep int counters that ``stats`` reads
without the lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future

__all__ = ["BoundedMemo", "SingleFlight"]


class BoundedMemo:
    """A thread-safe LRU map with an entry bound and an optional byte budget.

    ``get`` is the counted lookup; ``peek`` neither counts nor reorders;
    ``setdefault`` is first-writer-wins.  Overflowing ``max_entries``, or
    ``max_bytes`` of total ``sizeof(value)``, evicts least-recently-used
    entries; a value larger than the whole budget is never stored.  ``None``
    means a miss, so it is not a storable value.

    >>> memo = BoundedMemo(2)
    >>> memo.setdefault("a", 1), memo.setdefault("b", 2), memo.setdefault("a", 9)
    (1, 2, 1)
    >>> memo.get("a"), memo.setdefault("c", 3), memo.get("b")  # "c" evicts "b"
    (1, 3, None)
    """

    def __init__(self, max_entries: int, *, max_bytes: int | None = None, sizeof=None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if (max_bytes is None) != (sizeof is None):
            raise ValueError("a byte budget needs both max_bytes and sizeof")
        self.max_entries = int(max_entries)
        self.max_bytes = max_bytes
        self._sizeof = sizeof
        self._entries: OrderedDict = OrderedDict()  # key -> (value, size), LRU first
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes = 0

    def get(self, key):
        """The value under ``key`` or ``None``, counted as a hit or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        return entry[0]

    def peek(self, key):
        """Like :meth:`get`, but uncounted and leaving the LRU order alone."""
        with self._lock:
            entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def setdefault(self, key, value):
        """Store ``value`` unless ``key`` is present; return the stored value."""
        return self._admit(key, value, replace=False)

    def _admit(self, key, value, *, replace: bool):
        size = 0 if self._sizeof is None else int(self._sizeof(value))
        budget = float("inf") if self.max_bytes is None else self.max_bytes
        with self._lock:
            current = self._entries.get(key)
            if current is not None and not replace:
                return current[0]
            if size > budget:
                return value
            if current is not None:
                self.bytes -= current[1]
            self._entries[key] = (value, size)
            self._entries.move_to_end(key)
            self.bytes += size
            while len(self._entries) > self.max_entries or self.bytes > budget:
                _, (_, freed) = self._entries.popitem(last=False)
                self.bytes -= freed
                self.evictions += 1
        return value

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry; the lifetime counters stay."""
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    @property
    def stats(self) -> dict:
        """Lock-free counters (``bytes`` only under a byte budget)."""
        stats = dict(
            entries=len(self._entries), hits=self.hits, misses=self.misses, evictions=self.evictions
        )
        if self.max_bytes is not None:
            stats["bytes"] = self.bytes
        return stats


class SingleFlight:
    """Per-key de-duplication of concurrent work.

    ``do(key, fn)`` runs ``fn()`` in the first caller for ``key`` (the
    leader); callers arriving while it runs (followers) wait and get its
    result or exception.  The key is unregistered before the outcome is
    published, so a call after completion runs ``fn`` again.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inflight: dict = {}
        self.leaders = 0
        self.followers = 0

    def do(self, key, fn):
        """``fn()``, run once for every caller of ``key`` that overlaps it."""
        with self._lock:
            future = self._inflight.get(key)
            leader = future is None
            if leader:
                future = self._inflight[key] = Future()
                self.leaders += 1
            else:
                self.followers += 1
        if not leader:
            return future.result()
        try:
            result = fn()
        except BaseException as error:
            with self._lock:
                del self._inflight[key]
            future.set_exception(error)
            raise
        with self._lock:
            del self._inflight[key]
        future.set_result(result)
        return result

    @property
    def stats(self) -> dict:
        """``leaders`` (executions) and ``followers`` (shared outcomes)."""
        return {"leaders": self.leaders, "followers": self.followers}
