"""Content digests of workloads and strategies, memoised on the object.

Every cache that outlives one call keys on these digests, never on object
identity: CPython reuses the ``id()`` of a freed object, so an identity key
can hand one workload's cached verdict to an unrelated one.  Workloads and
strategies are immutable (every transformation returns a new object), so a
digest computed once per object stays valid for its lifetime.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exceptions import MaterializationError

__all__ = ["strategy_fingerprint", "workload_fingerprint"]


def _digest_array(h, array: np.ndarray) -> None:
    array = np.ascontiguousarray(np.asarray(array, dtype=float))
    h.update(str(array.shape).encode())
    h.update(array.tobytes())


def _memoised(obj, compute) -> str | None:
    cached = getattr(obj, "_cached_fingerprint", False)
    if cached is not False:
        return cached
    fingerprint = compute(obj)
    obj._cached_fingerprint = fingerprint
    return fingerprint


def workload_fingerprint(workload) -> str | None:
    """A content-addressed digest of the workload, or ``None`` if uncacheable.

    Keyed like the factor-``eigh`` memo: Kronecker workloads hash their factor
    Grams (tiny), explicit workloads their matrix bytes, Gram-backed workloads
    the Gram bytes — so structurally identical workloads built by different
    callers collide on purpose, and the plan cache can serve them all from
    one strategy optimization.

    The digest is memoised on the workload object, because the serving layer
    fingerprints on several hot paths per request: the plan-cache key, the
    in-flight coalescing key, and the strategy's support memo.  Hashing a
    dense matrix's bytes is linear in its size; doing it once per workload
    object instead of once per lookup keeps every later probe O(1).
    """
    return _memoised(workload, _workload_fingerprint_uncached)


def _workload_fingerprint_uncached(workload) -> str | None:
    h = hashlib.sha1()
    h.update(f"m={workload.query_count};n={workload.column_count};".encode())
    factors = workload._kron_factors
    if factors is not None:
        h.update(b"kron:")
        for factor in factors:
            h.update(f"q={factor.query_count}:".encode())
            _digest_array(h, factor.gram)
        return h.hexdigest()
    if workload.has_matrix:
        h.update(b"matrix:")
        _digest_array(h, workload.matrix)
        return h.hexdigest()
    try:
        gram = workload.gram
    except MaterializationError:
        return None
    h.update(b"gram:")
    _digest_array(h, gram)
    return h.hexdigest()


def strategy_fingerprint(strategy) -> str | None:
    """A content digest of an explicit or Gram-implicit strategy, else ``None``.

    The digest covers the name and the explicit matrix (or, without one, the
    dense Gram it was built from); a strategy served only by a structured
    Gram operator has none, since densifying it just to name it could cost
    more than the strategy itself.  The state store keys its
    content-addressed ``strategies`` table on this digest, so every release
    of one strategy references a single stored copy.
    """
    return _memoised(strategy, _strategy_fingerprint_uncached)


def _strategy_fingerprint_uncached(strategy) -> str | None:
    h = hashlib.sha1()
    h.update(f"strategy:{strategy.name};".encode())
    if strategy.has_matrix:
        h.update(b"matrix:")
        _digest_array(h, strategy.matrix)
        return h.hexdigest()
    gram = getattr(strategy, "_gram", None)
    if gram is None:
        return None
    h.update(b"gram:")
    _digest_array(h, gram)
    return h.hexdigest()
